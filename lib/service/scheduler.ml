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

(* Per-fabric shared state: everything here is built once, read by every
   job on the fabric.  [comp]/[graph]/[distance]/[lint] are immutable after
   build; [snapshot] is replaced (never mutated) between waves on the main
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

let resolve_circuit ~id = function
  | Protocol.Builtin name -> (
      match List.assoc_opt name (Circuits.Qecc.all ()) with
      | Some p -> Ok p
      | None ->
          Error
            (Qasm.Parser.error_of_string
               (Printf.sprintf "unknown builtin circuit %s (known: %s)" name
                  (String.concat ", " (List.map fst (Circuits.Qecc.all ()))))))
  | Protocol.Inline_qasm src -> Qasm.Parser.parse_located ~name:id src

let resolve_fabric = function
  | None -> Ok (Fabric.Layout.quale_45x85 ())
  | Some src -> Fabric.Layout.parse src

(* The fabric's layout-only lint findings and its component and graph: a
   registered fabric's are reused, looked up with [peek] so linting leaves
   the registry's recency and counters exactly as they were; otherwise
   they come from one cold extraction, which [entry_for] then registers. *)
let fabric_static t ~key layout =
  match Lru.peek t.fabrics key with
  | Some e when Fabric.Layout.equal e.layout layout -> (e.lint, Ok (e.comp, e.graph))
  | Some _ | None ->
      let built =
        Result.map (fun comp -> (comp, Fabric.Graph.build comp)) (Fabric.Component.extract layout)
      in
      (Analysis.Fabric_check.static_of built, built)

let entry_for t ~key ~lint ~built layout =
  let build () =
    Result.map
      (fun (comp, graph) ->
        let distance =
          Estimator.Distance.build graph
            ~turn_cost:(Router.Timing.turn_cost_in_moves t.base.Qspr.Config.timing)
        in
        { layout; comp; graph; distance; lint; snapshot = None })
      built
  in
  match Lru.find t.fabrics key with
  | Some e when Fabric.Layout.equal e.layout layout -> Ok e
  | Some _ ->
      (* digest collision with a different layout: run cold, don't register *)
      build ()
  | None -> (
      match build () with
      | Error _ as e -> e
      | Ok e ->
          Lru.put t.fabrics key e;
          Ok e)

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

type admission =
  | Run of prepared
  | Refuse of Protocol.verdict
  | Hit of Protocol.response  (** served verbatim from the response cache *)

let job_config t ?deadline (job : Protocol.job) =
  let base = t.base in
  let max_evals =
    match job.Protocol.max_evals with Some _ as e -> e | None -> t.limits.max_evals
  in
  let base = Qspr.Config.with_seed job.Protocol.seed base in
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

(* [slot] is shared mutable admission state for one submission: it counts
   every job that reached the ladder decision point (so shedding decisions
   depend only on upstream admission order, never on worker timing), and
   is advanced here exactly once per such job. *)
let admit t ~slot (job : Protocol.job) =
  match List.assoc_opt job.Protocol.placer Qspr.Mapper.strategies with
  | None ->
      Refuse
        (reject ~stage:"request"
           (Printf.sprintf "unknown placer %s (%s)" job.Protocol.placer
              (String.concat "|" (List.map fst Qspr.Mapper.strategies))))
  | Some strategy -> begin
    (* the deadline tier: arm the request's end-to-end budget first — a
       request that arrives already out of time is refused before any
       lint/estimation work is spent on it *)
    let deadline = Option.map Clock.after_ms job.Protocol.deadline_ms in
    match deadline with
    | Some d when Clock.expired d ->
        Refuse
          (reject ~stage:"deadline"
             (Printf.sprintf "deadline of %.1f ms expired before admission" (Clock.budget_ms d)))
    | _ ->
        let config = job_config t ?deadline job in
        let program_r = resolve_circuit ~id:job.Protocol.id job.Protocol.circuit in
        let fabric_r =
          Result.map
            (fun layout ->
              let key = fabric_key t layout in
              let lint, built = fabric_static t ~key layout in
              (layout, key, lint, built))
            (resolve_fabric job.Protocol.fabric)
        in
        let fabric_lint =
          match fabric_r with
          | Ok (_, _, lint, _) -> lint
          | Error msg -> Analysis.Fabric_check.static_result (Error msg)
        in
        (* mandatory lint ingress: parse failures and severity-2 findings both
           land here as structured rejections, never mapper exceptions *)
        let findings =
          Analysis.Registry.lint_static ~program:program_r ~fabric:fabric_lint ~config ()
        in
        if not (Analysis.Finding.is_clean findings) then
          Refuse
            (reject ~stage:"lint"
               ~findings:(List.map Analysis.Finding.to_json findings)
               (Printf.sprintf "%d lint error(s) (run `qspr lint` for the report)"
                  (Analysis.Finding.count Analysis.Finding.Error findings)))
        else
          match (program_r, fabric_r) with
          | Error e, _ ->
              (* unreachable while parse failures lint as errors; stay total *)
              Refuse (reject ~stage:"lint" (Qasm.Parser.error_to_string e))
          | _, Error e -> Refuse (reject ~stage:"lint" e)
          | Ok program, Ok (layout, key, lint, built) -> (
              match (job.Protocol.max_evals, t.limits.max_evals) with
              | Some req, Some cap when req > cap ->
                  Refuse
                    (reject ~stage:"budget"
                       (Printf.sprintf "requested max_evals %d exceeds the service ceiling %d" req
                          cap))
              | _ -> (
                  match entry_for t ~key ~lint ~built layout with
                  | Error e -> Refuse (reject ~stage:"admission" e)
                  | Ok entry -> (
                      let cache = Route_cache.create () in
                      match
                        Qspr.Mapper.create ~fabric:layout ~config
                          ~prebuilt:(entry.comp, entry.graph) ~distance:entry.distance
                          ~route_cache:cache program
                      with
                      | Error e -> Refuse (reject ~stage:"admission" e)
                      | Ok ctx ->
                          (* the quote: estimator latency of the deterministic
                             center placement — no routing, ~89x cheaper *)
                          let quote =
                            Qspr.Mapper.estimate ctx
                              (Placer.Center.place entry.comp
                                 ~num_qubits:(Qasm.Program.num_qubits program))
                          in
                          if not (Float.is_finite quote) then
                            Refuse
                              (reject ~stage:"quote"
                                 "estimator quote is infinite: interacting qubits are unreachable")
                          else
                            let ceiling =
                              match (t.limits.max_quote_us, job.Protocol.max_quote_us) with
                              | Some a, Some b -> Some (Float.min a b)
                              | (Some _ as c), None | None, (Some _ as c) -> c
                              | None, None -> None
                            in
                            (match ceiling with
                            | Some cap when quote > cap ->
                                Refuse
                                  (reject ~stage:"quote" ~quote
                                     (Printf.sprintf
                                        "quoted %.1f us exceeds the admission ceiling %.1f us"
                                        quote cap))
                            | _ ->
                                let rung = rung_of t.limits ~slot:!slot in
                                incr slot;
                                (match rung with
                                | Refused ->
                                    Refuse
                                      (reject ~stage:"queue" ~quote
                                         (Printf.sprintf
                                            "queue full: %d job(s) already admitted \
                                             (max_pending=%d)"
                                            (!slot - 1) t.limits.max_pending))
                                | Quote_only ->
                                    t.shed <- t.shed + 1;
                                    Refuse
                                      (reject ~stage:"shed" ~quote
                                         (Printf.sprintf
                                            "overload: served an estimate-only quote of %.1f us \
                                             (ladder rung quote, slot %d)"
                                            quote (!slot - 1)))
                                | (Full | Prescreen | Budgeted) as rung ->
                                    if rung <> Full then t.shed <- t.shed + 1;
                                    Run
                                      {
                                        p_job = job;
                                        p_entry = entry;
                                        p_ctx = ctx;
                                        p_strategy = strategy;
                                        p_cache = cache;
                                        p_quote = quote;
                                        p_rung = rung;
                                        p_warm_paths = 0;
                                      })))))
  end

(* ------------------------------------------------------------ execution *)

let attempts_of = function
  | [] -> []
  | attempts ->
      List.map
        (fun (a : Qspr.Mapper.attempt) ->
          {
            Protocol.stage = a.Qspr.Mapper.stage;
            seed = a.Qspr.Mapper.seed;
            outcome = Result.map_error Qspr.Mapper.error_to_string a.Qspr.Mapper.outcome;
          })
        attempts

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
   route cache's counters are read on the main domain after the wave.
   [Arena.prewarm] sizes the domain's trace builder and estimator scratch
   up front so even a fresh pool domain maps its first job warm. *)
let run_one p =
  let t0 = Sys.time () in
  Arena.prewarm p.p_ctx;
  let shed_audit =
    match p.p_rung with
    | Full | Quote_only | Refused -> []
    | rung ->
        (* the ladder step is part of the response's audit trail: the rung
           and the quote that admitted the job at that rung *)
        [
          {
            Protocol.stage = "shed:" ^ rung_name rung;
            seed = p.p_job.Protocol.seed;
            outcome = Ok p.p_quote;
          };
        ]
  in
  let verdict =
    match map_rung p with
    | Error e ->
        Protocol.Failed
          {
            reason = Qspr.Mapper.error_to_string e;
            quote_us = Some p.p_quote;
            attempts = shed_audit;
          }
    | Ok sol ->
        let cert = Analysis.Certify.of_solution p.p_ctx sol in
        Protocol.Completed
          {
            latency_us = sol.Qspr.Mapper.latency;
            quote_us = p.p_quote;
            lower_bound_us = sol.Qspr.Mapper.lower_bound_us;
            bound_kind = Estimator.Bound.kind_to_string sol.Qspr.Mapper.bound_kind;
            optimality_gap =
              (if sol.Qspr.Mapper.lower_bound_us > 0.0 then
                 Some
                   ((sol.Qspr.Mapper.latency -. sol.Qspr.Mapper.lower_bound_us)
                   /. sol.Qspr.Mapper.lower_bound_us)
               else None);
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
  Arena.record ();
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

let run_batch ?(first_slot = 0) ?on_result t jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let slot = ref first_slot in
  let admissions =
    Array.map
      (fun job ->
        match cache_lookup t job with
        | Some r -> Hit r
        | None -> admit t ~slot job)
      jobs
  in
  let admitted = ref [] and admitted_inputs = ref [] in
  Array.iteri
    (fun i a ->
      match a with
      | Run p ->
          admitted := p :: !admitted;
          admitted_inputs := i :: !admitted_inputs
      | Refuse _ | Hit _ -> ())
    admissions;
  let admitted = Array.of_list (List.rev !admitted) in
  let admitted_inputs = Array.of_list (List.rev !admitted_inputs) in
  (* responses materialize out of order (refusals instantly, mapped jobs per
     wave); [flush] hands them to [on_result] strictly in input order, so a
     journaling caller can persist-and-emit incrementally — crash-only: kill
     the process mid-batch and every already-flushed response survives *)
  let responses : Protocol.response option array = Array.make n None in
  let next = ref 0 in
  let flush () =
    while
      !next < n
      &&
      match responses.(!next) with
      | Some r ->
          (match on_result with Some f -> f jobs.(!next) r | None -> ());
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
  Array.iteri
    (fun i a ->
      match a with
      | Refuse verdict ->
          finalize i
            {
              Protocol.job_id = jobs.(i).Protocol.id;
              verdict;
              cache = None;
              cpu_s = 0.0;
              cached = false;
            }
      | Hit r -> finalize i r
      | Run _ -> ())
    admissions;
  flush ();
  let width = Int.max 1 t.limits.jobs in
  Ion_util.Domain_pool.with_pool ~jobs:width (fun pool ->
      let k = ref 0 in
      while !k < Array.length admitted do
        let wave = Array.sub admitted !k (Int.min width (Array.length admitted - !k)) in
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
            let i = admitted_inputs.(!k + j) in
            let response =
              {
                Protocol.job_id = jobs.(i).Protocol.id;
                verdict;
                cache = Some (cache_stats_of t p);
                cpu_s;
                cached = false;
              }
            in
            cache_store t jobs.(i) response;
            finalize i response)
          outs;
        flush ();
        k := !k + Array.length wave
      done);
  flush ();
  Array.to_list (Array.map Option.get responses)

let submit t job =
  match run_batch t [ job ] with [ r ] -> r | _ -> assert false

let handle_line ?deterministic t line =
  match Protocol.job_of_line line with
  | Error msg ->
      let response =
        {
          Protocol.job_id = "?";
          verdict = reject ~stage:"request" msg;
          cache = None;
          cpu_s = 0.0;
          cached = false;
        }
      in
      count_verdict t response.Protocol.verdict;
      Protocol.response_to_line ?deterministic response
  | Ok job -> Protocol.response_to_line ?deterministic (submit t job)

type stats = {
  fabrics : int;
  fabric_evictions : int;
  shared_paths : int;
  shared_bounds : int;
  response_hits : int;
  response_evictions : int;
  completed : int;
  rejected : int;
  failed : int;
  shed : int;
}

let stats (t : t) =
  let shared_paths = ref 0 and shared_bounds = ref 0 in
  Lru.iter
    (fun (_, e) ->
      match e.snapshot with
      | Some s ->
          shared_paths := !shared_paths + Route_cache.snapshot_paths s;
          shared_bounds := !shared_bounds + Route_cache.snapshot_bounds s
      | None -> ())
    t.fabrics;
  {
    fabrics = Lru.length t.fabrics;
    fabric_evictions = Lru.evictions t.fabrics;
    shared_paths = !shared_paths;
    shared_bounds = !shared_bounds;
    response_hits = Lru.hits t.responses;
    response_evictions = Lru.evictions t.responses + Lru.expirations t.responses;
    completed = t.completed;
    rejected = t.rejected;
    failed = t.failed;
    shed = t.shed;
  }
