module Route_cache = Router.Route_cache
module Clock = Ion_util.Clock
module Lru = Ion_util.Lru

type limits = {
  jobs : int;
  max_pending : int;
  max_quote_us : float option;
  max_evals : int option;
  shed_start : int option;
  max_fabrics : int;
  response_cache : int;
  response_ttl_s : float option;
}

let default_limits =
  {
    jobs = 1;
    max_pending = 64;
    max_quote_us = None;
    max_evals = None;
    shed_start = None;
    max_fabrics = 8;
    response_cache = 256;
    response_ttl_s = None;
  }

(* ------------------------------------------------------- degradation ladder *)

(* The overload ladder: queue depth (the admission slot) picks how much
   search a job gets.  Below [shed_start] (default half of [max_pending])
   jobs run their full request; the remaining headroom is split in three
   even rungs of progressively cheaper service, and only past
   [max_pending] is a job refused outright.  The rung is a pure function
   of (limits, slot) and slots are assigned sequentially on the main
   domain, so shedding decisions are bit-identical at any [jobs] width. *)
type rung = Full | Prescreen | Budgeted | Quote_only | Refused

let rung_name = function
  | Full -> "none"
  | Prescreen -> "prescreen"
  | Budgeted -> "budgeted"
  | Quote_only -> "quote"
  | Refused -> "refused"

let rung_of limits ~slot =
  let p = max 1 limits.max_pending in
  let s =
    match limits.shed_start with
    | Some s -> min (max 0 s) p
    | None -> max 1 (p / 2)
  in
  if slot >= p then Refused
  else if slot < s then Full
  else begin
    let third = max 1 ((p - s + 2) / 3) in
    if slot < s + third then Prescreen else if slot < s + (2 * third) then Budgeted else Quote_only
  end

(* Whether a response used a ladder slot when it was first computed: every
   job that ran, and the ladder's own refusals (an estimate-only quote,
   stage "shed", and a full queue, stage "queue"); the tiers before the
   ladder refuse without one.  Counting them over a journaled prefix
   resumes the ladder where the interrupted run left it. *)
let consumed_slot (r : Protocol.response) =
  match r.Protocol.verdict with
  | Protocol.Completed _ | Protocol.Failed _ -> true
  | Protocol.Rejected { stage; _ } -> String.equal stage "shed" || String.equal stage "queue"

(* Per-fabric shared state: everything here is built once, read by every
   job on the fabric.  [comp]/[graph]/[lint] are immutable after build;
   [distance] fills its write-once rows as jobs read them, on any domain;
   [snapshot] is replaced (never mutated) between waves on the main
   domain. *)
type fabric_entry = {
  layout : Fabric.Layout.t;
  comp : Fabric.Component.t;
  graph : Fabric.Graph.t;
  distance : Estimator.Distance.t;
  lint : Analysis.Fabric_check.static;  (** layout-only lint findings *)
  mutable snapshot : Route_cache.snapshot option;
}

type t = {
  limits : limits;
  base : Qspr.Config.t;
  fabrics : (int64, fabric_entry) Lru.t;
      (* warm-state registry, LRU-capped: under many distinct fabrics the
         least-recently-served fabric's tables are dropped, not leaked.
         Jobs in flight keep their entry alive through their own reference;
         an evicted entry simply stops receiving warm folds. *)
  responses : (int64, string * Protocol.response) Lru.t;
      (* response cache keyed on FNV-1a of the job's deterministic
         encoding; the stored encoding is compared on hit so a digest
         collision can never serve the wrong job's result *)
  mutable completed : int;
  mutable rejected : int;
  mutable failed : int;
  mutable shed : int;
}

let create ?(limits = default_limits) ?(config = Qspr.Config.default) () =
  (* wall-clock budgets are nondeterministic; strip them so every response
     is a pure function of its job.  Each job runs its placer in one pool
     slot — parallelism is across jobs — so the per-job fan-out is 1. *)
  let base =
    Qspr.Config.with_jobs 1
      {
        config with
        Qspr.Config.budget = { config.Qspr.Config.budget with Qspr.Config.wall_s = None };
      }
  in
  {
    limits;
    base;
    fabrics = Lru.create ~cap:(max 0 limits.max_fabrics) ();
    responses =
      Lru.create ?ttl_s:limits.response_ttl_s ~cap:(max 0 limits.response_cache) ();
    completed = 0;
    rejected = 0;
    failed = 0;
    shed = 0;
  }

(* ------------------------------------------------------------ admission *)

(* Fabric digest: canonical ASCII rendering plus the base-weight turn cost
   (the only base-weight parameter the cached tables depend on — channel
   and junction capacities shape live weights, not base ones). *)
let fabric_key t layout =
  let tc = Router.Timing.turn_cost_in_moves t.base.Qspr.Config.timing in
  Journal.key (Printf.sprintf "%.17g|%s" tc (Fabric.Layout.to_ascii layout))

(* The registry's entry for [layout] under its digest [key], read with
   [lookup] ([Lru.peek] or [Lru.find]).  A digest collision with another
   layout reads as no entry. *)
let registered lookup t ~key layout =
  match lookup t.fabrics key with
  | Some e when Fabric.Layout.equal e.layout layout -> Some e
  | Some _ | None -> None

let resolve_circuit ~id = function
  | Protocol.Inline_qasm src -> Qasm.Parser.parse_located ~name:id src
  | Protocol.Builtin name -> (
      match List.assoc_opt name (Circuits.Qecc.all ()) with
      | Some p -> Ok p
      | None ->
          let known = String.concat ", " (List.map fst (Circuits.Qecc.all ())) in
          let msg = Printf.sprintf "unknown builtin circuit %s (known: %s)" name known in
          Error (Qasm.Parser.error_of_string msg))

let resolve_fabric = function
  | None -> Ok (Fabric.Layout.quale_45x85 ())
  | Some src -> Fabric.Layout.parse src

(* A parsed fabric as the lint tier hands it to the admission tier: its
   registry key, layout-only lint findings, and component and graph. *)
type fabric_static = {
  s_layout : Fabric.Layout.t;
  s_key : int64;
  s_lint : Analysis.Fabric_check.static;
  s_built : (Fabric.Component.t * Fabric.Graph.t, string) result;
}

(* A registered fabric's static data is reused, read with [Lru.peek] so
   linting leaves the registry's recency and counters as they were;
   otherwise it comes from one cold extraction. *)
let fabric_static t s_layout =
  let s_key = fabric_key t s_layout in
  match registered Lru.peek t ~key:s_key s_layout with
  | Some e -> { s_layout; s_key; s_lint = e.lint; s_built = Ok (e.comp, e.graph) }
  | None ->
      let extract = Fabric.Component.extract s_layout in
      let s_built = Result.map (fun comp -> (comp, Fabric.Graph.build comp)) extract in
      { s_layout; s_key; s_lint = Analysis.Fabric_check.static_of s_built; s_built }

(* A job that cleared admission: everything a worker domain needs, plus the
   private route cache whose counters become the response's cache section. *)
type prepared = {
  p_job : Protocol.job;
  p_entry : fabric_entry;
  p_ctx : Qspr.Mapper.t;
  p_strategy : Qspr.Mapper.strategy;
  p_cache : Route_cache.t;
  p_quote : float;
  p_rung : rung;
  mutable p_warm_paths : int;
}

let reject ?quote ?(findings = []) ~stage reason =
  Protocol.Rejected { stage; reason; quote_us = quote; findings }

(* a response that needed no mapping: a refusal or a malformed line *)
let answer ~job_id verdict = { Protocol.job_id; verdict; cache = None; cpu_s = 0.0; cached = false }

let job_config t ?deadline (job : Protocol.job) =
  let max_evals =
    match job.Protocol.max_evals with Some _ as e -> e | None -> t.limits.max_evals
  in
  let base = Qspr.Config.with_seed job.Protocol.seed t.base in
  let base = match job.Protocol.m with Some m -> Qspr.Config.with_m m base | None -> base in
  Qspr.Config.with_budget { Qspr.Config.wall_s = None; max_evals; deadline } base

(* Response-cache key: the job's canonical single-line encoding (the
   encoding is a pure function of the record, field order fixed).  Only
   full-service completions are cached — shed rungs answer for a load
   level, not for the job. *)
let response_key job =
  let line = Protocol.job_to_line job in
  (Journal.key line, line)

let cache_lookup t job =
  if Lru.capacity t.responses = 0 then None
  else begin
    let key, line = response_key job in
    match Lru.find t.responses key with
    | Some (stored_line, r) when String.equal stored_line line ->
        Some { r with Protocol.cached = true }
    | Some _ | None -> None
  end

let cache_store t job response =
  if Lru.capacity t.responses > 0 then begin
    match response.Protocol.verdict with
    | Protocol.Completed c when c.shed = "none" ->
        let key, line = response_key job in
        Lru.put t.responses key
          (line, { response with Protocol.cache = None; cpu_s = 0.0; cached = false })
    | _ -> ()
  end

let ( let* ) = Result.bind

(* The admission tiers, in order.  Each returns what the next one needs,
   or [Error] with its own refusal. *)

(* request: the placer must be one of [Mapper.strategies] (malformed lines
   never reach [admit]). *)
let request_tier (job : Protocol.job) =
  match List.assoc_opt job.Protocol.placer Qspr.Mapper.strategies with
  | Some strategy -> Ok strategy
  | None ->
      Error
        (reject ~stage:"request"
           (Printf.sprintf "unknown placer %s (%s)" job.Protocol.placer
              (String.concat "|" (List.map fst Qspr.Mapper.strategies))))

(* deadline: the request's end-to-end budget is armed before any work, and
   a request that arrives already out of time is refused. *)
let deadline_tier (job : Protocol.job) =
  match Option.map Clock.after_ms job.Protocol.deadline_ms with
  | Some d when Clock.expired d ->
      Error
        (reject ~stage:"deadline"
           (Printf.sprintf "deadline of %.1f ms expired before admission" (Clock.budget_ms d)))
  | deadline -> Ok deadline

(* lint: mandatory ingress.  Parse failures and severity-2 findings both
   land here as structured refusals, never mapper exceptions. *)
let lint_tier t ~config (job : Protocol.job) =
  let program = resolve_circuit ~id:job.Protocol.id job.Protocol.circuit in
  let fabric = Result.map (fabric_static t) (resolve_fabric job.Protocol.fabric) in
  let fabric_lint =
    match fabric with
    | Ok f -> f.s_lint
    | Error msg -> Analysis.Fabric_check.static_result (Error msg)
  in
  let findings = Analysis.Registry.lint_static ~program ~fabric:fabric_lint ~config () in
  if not (Analysis.Finding.is_clean findings) then
    Error
      (reject ~stage:"lint"
         ~findings:(List.map Analysis.Finding.to_json findings)
         (Printf.sprintf "%d lint error(s) (run `qspr lint` for the report)"
            (Analysis.Finding.count Analysis.Finding.Error findings)))
  else
    match (program, fabric) with
    | Error e, _ ->
        (* unreachable while parse failures lint as errors; stay total *)
        Error (reject ~stage:"lint" (Qasm.Parser.error_to_string e))
    | _, Error e -> Error (reject ~stage:"lint" e)
    | Ok program, Ok f -> Ok (program, f)

(* budget: a requested [max_evals] above the service ceiling. *)
let budget_tier t (job : Protocol.job) =
  match (job.Protocol.max_evals, t.limits.max_evals) with
  | Some req, Some cap when req > cap ->
      Error
        (reject ~stage:"budget"
           (Printf.sprintf "requested max_evals %d exceeds the service ceiling %d" req cap))
  | _ -> Ok ()

(* admission: the fabric's registry entry, read with [Lru.find] (a hit
   refreshes its recency), and the job's mapper context.  A new fabric is
   built from the lint tier's extraction and registered; under a digest
   collision with another layout it runs cold, unregistered. *)
let admission_tier t ~config program f =
  let entry =
    match registered Lru.find t ~key:f.s_key f.s_layout with
    | Some e -> Ok e
    | None ->
        let* comp, graph = f.s_built in
        let turn_cost = Router.Timing.turn_cost_in_moves t.base.Qspr.Config.timing in
        let distance = Estimator.Distance.build graph ~turn_cost in
        let e = { layout = f.s_layout; comp; graph; distance; lint = f.s_lint; snapshot = None } in
        if not (Lru.mem t.fabrics f.s_key) then Lru.put t.fabrics f.s_key e;
        Ok e
  in
  let refuse e = reject ~stage:"admission" e in
  let* entry = Result.map_error refuse entry in
  let cache = Route_cache.create () in
  let* ctx =
    Result.map_error refuse
      (Qspr.Mapper.create ~fabric:f.s_layout ~config ~prebuilt:(entry.comp, entry.graph)
         ~distance:entry.distance ~route_cache:cache program)
  in
  Ok (entry, cache, ctx)

(* quote: the estimator latency of the deterministic center placement —
   no routing, ~89x cheaper — refused when infinite or above the service's
   or the client's ceiling. *)
let quote_tier t (job : Protocol.job) program entry ctx =
  let num_qubits = Qasm.Program.num_qubits program in
  let quote = Qspr.Mapper.estimate ctx (Placer.Center.place entry.comp ~num_qubits) in
  (* the lower of the service's and the client's ceilings; none is infinite *)
  let cap =
    List.fold_left Float.min infinity
      (List.filter_map Fun.id [ t.limits.max_quote_us; job.Protocol.max_quote_us ])
  in
  if not (Float.is_finite quote) then
    Error (reject ~stage:"quote" "estimator quote is infinite: interacting qubits are unreachable")
  else if quote > cap then
    Error
      (reject ~stage:"quote" ~quote
         (Printf.sprintf "quoted %.1f us exceeds the admission ceiling %.1f us" quote cap))
  else Ok quote

(* ladder: the job takes the next slot, and the slot's rung is its service
   level; the quote-only rung and a full queue refuse with the quote.
   [consumed_slot] names the same verdicts. *)
let ladder_tier t ~slot ~quote =
  let s = !slot in
  incr slot;
  match rung_of t.limits ~slot:s with
  | Refused ->
      Error
        (reject ~stage:"queue" ~quote
           (Printf.sprintf "queue full: %d job(s) already admitted (max_pending=%d)" s
              t.limits.max_pending))
  | Quote_only ->
      t.shed <- t.shed + 1;
      Error
        (reject ~stage:"shed" ~quote
           (Printf.sprintf
              "overload: served an estimate-only quote of %.1f us (ladder rung quote, slot %d)"
              quote s))
  | (Full | Prescreen | Budgeted) as rung ->
      if rung <> Full then t.shed <- t.shed + 1;
      Ok rung

(* [slot] counts the jobs of one submission that reached the ladder, so
   shedding depends only on upstream admission order, never on worker
   timing; only [ladder_tier] advances it. *)
let admit t ~slot (job : Protocol.job) =
  let* strategy = request_tier job in
  let* deadline = deadline_tier job in
  let config = job_config t ?deadline job in
  let* program, fabric = lint_tier t ~config job in
  let* () = budget_tier t job in
  let* entry, cache, ctx = admission_tier t ~config program fabric in
  let* quote = quote_tier t job program entry ctx in
  let* rung = ladder_tier t ~slot ~quote in
  Ok
    {
      p_job = job;
      p_entry = entry;
      p_ctx = ctx;
      p_strategy = strategy;
      p_cache = cache;
      p_quote = quote;
      p_rung = rung;
      p_warm_paths = 0;
    }

(* ------------------------------------------------------------ execution *)

let attempts_of =
  List.map (fun (a : Qspr.Mapper.attempt) ->
      {
        Protocol.stage = a.Qspr.Mapper.stage;
        seed = a.Qspr.Mapper.seed;
        outcome = Result.map_error Qspr.Mapper.error_to_string a.Qspr.Mapper.outcome;
      })

(* What each ladder rung actually runs.  [Full] honors the request;
   [Prescreen] forces estimator-prescreened MVFB (every candidate is
   estimated, only the top 2 are routed — the cheap end of the placer
   spectrum that still searches); [Budgeted] routes exactly one
   deterministic center placement. *)
let map_rung p =
  match p.p_rung with
  | Prescreen ->
      Qspr.Mapper.map Mvfb (Qspr.Mapper.with_search (Qspr.Config.with_prescreen (Some 2)) p.p_ctx)
  | Budgeted -> Qspr.Mapper.map Center p.p_ctx
  | Full | Quote_only | Refused -> Qspr.Mapper.map p.p_strategy p.p_ctx

(* Runs on a worker domain: map, certify, return pure data.  The private
   route cache's counters are read on the main domain after the wave. *)
let run_one p =
  let t0 = Sys.time () in
  let shed_audit =
    match p.p_rung with
    | Full | Quote_only | Refused -> []
    | rung ->
        (* the ladder step is part of the response's audit trail: the rung
           and the quote that admitted the job at that rung *)
        let stage = "shed:" ^ rung_name rung in
        [ { Protocol.stage; seed = p.p_job.Protocol.seed; outcome = Ok p.p_quote } ]
  in
  let verdict =
    match map_rung p with
    | Error e ->
        let reason = Qspr.Mapper.error_to_string e in
        Protocol.Failed { reason; quote_us = Some p.p_quote; attempts = shed_audit }
    | Ok sol ->
        let cert = Analysis.Certify.of_solution p.p_ctx sol in
        Protocol.Completed
          {
            latency_us = sol.Qspr.Mapper.latency;
            quote_us = p.p_quote;
            lower_bound_us = sol.Qspr.Mapper.lower_bound_us;
            bound_kind = Estimator.Bound.kind_to_string sol.Qspr.Mapper.bound_kind;
            optimality_gap =
              Estimator.Bound.gap ~latency:sol.Qspr.Mapper.latency
                ~bound:sol.Qspr.Mapper.lower_bound_us;
            placement_runs = sol.Qspr.Mapper.placement_runs;
            engine_evals = sol.Qspr.Mapper.engine_evals;
            degraded = sol.Qspr.Mapper.degraded || p.p_rung <> Full;
            direction =
              (match sol.Qspr.Mapper.direction with
              | Placer.Mvfb.Forward -> "forward"
              | Placer.Mvfb.Backward -> "backward");
            shed = rung_name p.p_rung;
            certificate_digest = cert.Analysis.Certify.digest;
            certificate_valid = cert.Analysis.Certify.valid;
            attempts = shed_audit @ attempts_of sol.Qspr.Mapper.attempts;
          }
  in
  (verdict, Sys.time () -. t0)

let cache_stats_of t p =
  {
    Protocol.hits = Route_cache.hits p.p_cache;
    misses = Route_cache.misses p.p_cache;
    shared_hits = Route_cache.shared_hits p.p_cache;
    bound_builds = Route_cache.bound_builds p.p_cache;
    warm_paths = p.p_warm_paths;
    fabric_evictions = Lru.evictions t.fabrics;
  }

let count_verdict t = function
  | Protocol.Completed _ -> t.completed <- t.completed + 1
  | Protocol.Rejected _ -> t.rejected <- t.rejected + 1
  | Protocol.Failed _ -> t.failed <- t.failed + 1

(* The one execution path behind [run_batch], [handle_line] and
   [serve_batch].  [inputs] are decoded request lines: a malformed one
   ([Error msg]) is answered in place with a ["request"] rejection and
   consumes no ladder slot.  Responses materialize out of order (answers at
   admission, mapped jobs per wave); [flush] hands them to [on_result]
   strictly in input order, so a journaling caller can persist-and-emit
   incrementally — crash-only: kill the process mid-batch and every
   already-flushed response survives. *)
let run ~first_slot ~on_result t inputs =
  let n = Array.length inputs in
  let responses : Protocol.response option array = Array.make n None in
  let next = ref 0 in
  let flush () =
    while
      !next < n
      &&
      match responses.(!next) with
      | Some r ->
          on_result !next r;
          true
      | None -> false
    do
      incr next
    done
  in
  let finalize i response =
    count_verdict t response.Protocol.verdict;
    responses.(i) <- Some response
  in
  let slot = ref first_slot in
  let admitted = ref [] in
  Array.iteri
    (fun i input ->
      match input with
      | Error msg -> finalize i (answer ~job_id:"?" (reject ~stage:"request" msg))
      | Ok (job : Protocol.job) -> (
          match cache_lookup t job with
          | Some r -> finalize i r
          | None -> (
              match admit t ~slot job with
              | Error verdict -> finalize i (answer ~job_id:job.Protocol.id verdict)
              | Ok p -> admitted := (i, p) :: !admitted)))
    inputs;
  let admitted = Array.of_list (List.rev !admitted) in
  flush ();
  (* no wider than the admitted jobs: a batch with none spawns no domain *)
  let width = Int.max 1 (Int.min t.limits.jobs (Array.length admitted)) in
  Ion_util.Domain_pool.with_pool ~jobs:width (fun pool ->
      let k = ref 0 in
      while !k < Array.length admitted do
        let wave = Array.map snd (Array.sub admitted !k (Int.min width (Array.length admitted - !k))) in
        (* attach the current per-fabric snapshots on the main domain; the
           pool's queue mutex publishes them to the worker domains *)
        Array.iter
          (fun p ->
            match p.p_entry.snapshot with
            | Some s ->
                p.p_warm_paths <- Route_cache.snapshot_paths s;
                Route_cache.attach p.p_cache s
            | None -> ())
          wave;
        let outs = Ion_util.Domain_pool.map pool run_one wave in
        (* fold this wave's private caches back into the per-fabric
           snapshots, in wave order, so the next wave starts warmer *)
        Array.iter
          (fun p ->
            (match p.p_entry.snapshot with
            | Some s -> Route_cache.attach p.p_cache s
            | None -> Route_cache.for_graph p.p_cache p.p_entry.graph);
            p.p_entry.snapshot <- Some (Route_cache.freeze p.p_cache))
          wave;
        Array.iteri
          (fun j (verdict, cpu_s) ->
            let p = wave.(j) in
            let response =
              {
                Protocol.job_id = p.p_job.Protocol.id;
                verdict;
                cache = Some (cache_stats_of t p);
                cpu_s;
                cached = false;
              }
            in
            cache_store t p.p_job response;
            finalize (fst admitted.(!k + j)) response)
          outs;
        flush ();
        k := !k + Array.length wave
      done);
  Array.map Option.get responses

let run_batch ?on_result t jobs =
  let jobs = Array.of_list jobs in
  let on_result = match on_result with Some f -> fun i r -> f jobs.(i) r | None -> fun _ _ -> () in
  Array.to_list (run ~first_slot:0 ~on_result t (Array.map Result.ok jobs))

let submit t job =
  match run_batch t [ job ] with [ r ] -> r | _ -> assert false

let handle_line ?deterministic t line =
  match run ~first_slot:0 ~on_result:(fun _ _ -> ()) t [| Protocol.job_of_line line |] with
  | [| r |] -> Protocol.response_to_line ?deterministic r
  | _ -> assert false

let serve_batch ?deterministic ?journal ~emit t lines =
  let lines = Array.of_list (List.filter (fun l -> String.trim l <> "") lines) in
  let inputs = Array.map Protocol.job_of_line lines in
  (* the journal's join key: the canonical encoding of a well-formed
     request (so a reformatted but identical line still matches), the raw
     line of a malformed one *)
  let keys =
    Array.map2
      (fun line -> function
        | Ok job -> Journal.key (Protocol.job_to_line job) | Error _ -> Journal.key line)
      lines inputs
  in
  let replayed = match journal with Some path -> Journal.replay path | None -> [] in
  let resume = List.length replayed in
  let n = Array.length lines in
  match journal with
  | Some path
    when resume > n
         || not
              (List.for_all2
                 (fun (e : Journal.entry) k -> Int64.equal e.Journal.key k)
                 replayed
                 (Array.to_list (Array.sub keys 0 resume))) ->
      Error (Printf.sprintf "journal %s does not match this batch input; refusing to resume" path)
  | _ ->
      (* replay the journaled prefix byte for byte, then resume at the first
         unjournaled request with the ladder slot counter the interrupted
         run had reached *)
      List.iter (fun (e : Journal.entry) -> emit e.Journal.response_line) replayed;
      let first_slot =
        List.length
          (List.filter (fun (e : Journal.entry) -> consumed_slot e.Journal.response) replayed)
      in
      let jnl = Option.map Journal.open_append journal in
      let fresh =
        Fun.protect
          ~finally:(fun () -> Option.iter Journal.close jnl)
          (fun () ->
            run ~first_slot
              ~on_result:(fun i r ->
                let line = Protocol.response_to_line ?deterministic r in
                (* write-ahead: a response is durable before it is emitted *)
                Option.iter (fun j -> Journal.append j ~key:keys.(resume + i) ~response_line:line) jnl;
                emit line)
              t
              (Array.sub inputs resume (n - resume)))
      in
      Ok
        (Protocol.exit_code
           (List.map (fun (e : Journal.entry) -> e.Journal.response) replayed @ Array.to_list fresh))

type stats = {
  fabrics : int;
  fabric_evictions : int;
  shared_paths : int;
  distance_rows : int;
  response_hits : int;
  response_evictions : int;
  completed : int;
  rejected : int;
  failed : int;
  shed : int;
}

let stats (t : t) =
  let shared_paths = ref 0 and distance_rows = ref 0 in
  Lru.iter
    (fun (_, e) ->
      distance_rows :=
        !distance_rows + Router.Lower_bound.built (Estimator.Distance.store e.distance);
      Option.iter (fun s -> shared_paths := !shared_paths + Route_cache.snapshot_paths s) e.snapshot)
    t.fabrics;
  {
    fabrics = Lru.length t.fabrics;
    fabric_evictions = Lru.evictions t.fabrics;
    shared_paths = !shared_paths;
    distance_rows = !distance_rows;
    response_hits = Lru.hits t.responses;
    response_evictions = Lru.evictions t.responses + Lru.expirations t.responses;
    completed = t.completed;
    rejected = t.rejected;
    failed = t.failed;
    shed = t.shed;
  }
