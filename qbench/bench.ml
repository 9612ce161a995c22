module Protocol = Service.Protocol
module Scheduler = Service.Scheduler
module Json = Ion_util.Json
module Stats = Ion_util.Stats

let now = Ion_util.Clock.now_s

let env_overrides =
  [
    "QSPR_JOBS";
    "QSPR_PRESCREEN";
    "QSPR_SA_MOVES";
    "QSPR_BUDGET";
    "QSPR_BUDGET_EVALS";
    "QSPR_INCREMENTAL";
  ]

(* The service configuration, built explicitly rather than trusting the
   environment-reading defaults: width 1, no prescreen, no budgets,
   incremental routing on, the workload's delta-SA moves. *)
let config w =
  Qspr.Config.(
    default |> with_jobs 1 |> with_prescreen None |> with_budget no_budget
    |> with_sa_moves (Gen.sa_moves w)
    |> with_incremental true)

(* Width 1: one client in a closed loop, as the daemon serves a line at a
   time; wider batches measure the host's core count, not the mapper. *)
let limits = { Scheduler.default_limits with Scheduler.jobs = 1 }

type metric = { name : string; unit_ : string; value : float }

type result = {
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;
  context : (string * Json.t) list;
}

(* fresh services set up before each timed pass, on top of the pass's own *)
let extra_setups = 4

(* Host speed.  Shared hosts run for seconds to minutes at a time up to
   2x faster or slower, which moves every time a run reads.  The probe
   ({!Calib}) is timed between jobs, outside their times, and every time
   is multiplied by [reference_probe_s] over the probe's time around it, so
   it reads as on a host where the probe takes [reference_probe_s].  The
   raw readings are kept in the context record. *)
let reference_probe_s = 0.004
let probe () = Stats.median (List.init 3 (fun _ -> Calib.sample ()))
let scale_of probe_s = reference_probe_s /. probe_s

(* serve-ingress requests between two probes *)
let probe_every = 20

type pass_result = {
  setup_s : float;
  extra_setup_s : float list;  (** the fresh set-ups timed before the pass *)
  setup_scale : float;  (** host-speed factor of the set-ups *)
  job_ms : float array;
  job_scale : float array;  (** host-speed factor of each job *)
  warm : Protocol.response option array;
  responses : Protocol.response option array;  (** [None]: undecodable line *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

(* A fresh service, warmed with one request per fabric: the set-up time. *)
let setup w (pass : Gen.pass) =
  let t0 = now () in
  let svc = Scheduler.create ~limits ~config:(config w) () in
  let warm =
    Array.map (fun (r : Gen.request) -> Scheduler.handle_line svc r.Gen.line) pass.Gen.warmups
  in
  (svc, now () -. t0, warm)

let decode line = Result.to_option (Protocol.response_of_line line)

let run_pass w (pass : Gen.pass) jobs =
  let svc, setup_s, warm = setup w pass in
  let n = Array.length pass.Gen.requests in
  let job_ms = Array.make n 0.0 and job_probe = Array.make n 0.0 in
  let g0 = Gc.quick_stat () in
  let responses =
    match w with
    | Gen.Serve_ingress ->
        let out = Array.make n "" in
        let probes = Array.init (((n - 1) / probe_every) + 2) (fun _ -> 0.0) in
        Array.iteri
          (fun i (r : Gen.request) ->
            if i mod probe_every = 0 then probes.(i / probe_every) <- probe ();
            let a = now () in
            out.(i) <- Scheduler.handle_line svc r.Gen.line;
            job_ms.(i) <- (now () -. a) *. 1000.0)
          pass.Gen.requests;
        probes.(Array.length probes - 1) <- probe ();
        Array.iteri
          (fun i _ ->
            let k = i / probe_every in
            job_probe.(i) <- (probes.(k) +. probes.(k + 1)) /. 2.0)
          job_probe;
        `Lines out
    | Gen.Table1_mvfb | Gen.Portfolio_anneal ->
        (* one batch; each job's time runs from the previous answer to its
           own, so the first also carries the batch's admission work *)
        let before = ref (probe ()) in
        let k = ref 0 and last = ref (now ()) in
        let on_result _ _ =
          job_ms.(!k) <- (now () -. !last) *. 1000.0;
          let after = probe () in
          job_probe.(!k) <- (!before +. after) /. 2.0;
          before := after;
          incr k;
          last := now ()
        in
        `Responses (Scheduler.run_batch ~on_result svc jobs)
  in
  let g1 = Gc.quick_stat () in
  let responses =
    match responses with
    | `Lines out -> Array.map decode out
    | `Responses rs -> Array.of_list (List.map Option.some rs)
  in
  {
    setup_s;
    extra_setup_s = [];
    setup_scale = 1.0;
    job_ms;
    job_scale = Array.map scale_of job_probe;
    warm = Array.map decode warm;
    responses;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* ------------------------------------------------------------- checking *)

(* Why a response fails the check, if it does. *)
let check (r : Gen.request) ~id = function
  | None -> Some "undecodable response line"
  | Some (resp : Protocol.response) -> (
      let status = Protocol.status_of resp.Protocol.verdict in
      if not (String.equal resp.Protocol.job_id id) then
        Some (Printf.sprintf "answered as job %s" resp.Protocol.job_id)
      else if not (String.equal status r.Gen.expect_status) then
        Some
          (Printf.sprintf "status %s, expected %s%s" status r.Gen.expect_status
             (match resp.Protocol.verdict with
             | Protocol.Rejected { stage; reason; _ } -> Printf.sprintf " (%s: %s)" stage reason
             | Protocol.Failed { reason; _ } -> " (" ^ reason ^ ")"
             | Protocol.Completed _ -> ""))
      else
        match resp.Protocol.verdict with
        | Protocol.Rejected { stage; _ } ->
            if Some stage = r.Gen.expect_stage then None
            else Some (Printf.sprintf "refused at stage %s, expected %s" stage
                         (Option.value ~default:"none" r.Gen.expect_stage))
        | Protocol.Failed { reason; _ } -> Some ("failed: " ^ reason)
        | Protocol.Completed c ->
            if not c.certificate_valid then Some "certificate_valid = false"
            else if c.lower_bound_us > c.latency_us then
              Some
                (Printf.sprintf "lower_bound_us %.17g > latency_us %.17g" c.lower_bound_us
                   c.latency_us)
            else None)

let det resp = Option.map (Protocol.response_to_line ~deterministic:true) resp

(* Compare a traced job with the untraced response to the same request. *)
let agree (j : Layers.job) = function
  | None -> Some "no untraced response to compare"
  | Some (resp : Protocol.response) -> (
      let a = j.Layers.answer in
      match (resp.Protocol.verdict, j.Layers.disagreements) with
      | _, d :: _ -> Some ("traced probe: " ^ d)
      | Protocol.Completed c, [] ->
          if a.Layers.latency_bits <> Some (Int64.bits_of_float c.latency_us) then
            Some "traced latency bits differ from the service's"
          else if a.Layers.digest <> Some c.certificate_digest then
            Some "traced certificate digest differs from the service's"
          else None
      | Protocol.Rejected { stage; _ }, [] ->
          if a.Layers.status = "rejected" && a.Layers.stage = Some stage then None
          else
            Some
              (Printf.sprintf "traced run answered %s, the service refused at %s" a.Layers.status
                 stage)
      | Protocol.Failed _, [] ->
          if a.Layers.status = "failed" then None
          else Some "traced run did not fail like the service")

(* ------------------------------------------------------------- metrics *)

let geomean xs = if xs = [] then 0.0 else Stats.geometric_mean xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* The highest percentile with at least ten samples beyond it. *)
let tail_percentile n =
  if n <= 20 then 50.0 else Float.of_int (1000 * (n - 10) / n) /. 10.0

let git_commit () =
  let read p =
    try Some (String.trim (In_channel.with_open_text p In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown (not a git checkout)"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some c -> c
      | None ->
          let packed = Option.value ~default:"" (read ".git/packed-refs") in
          List.find_map
            (fun l ->
              match String.split_on_char ' ' l with
              | [ sha; name ] when String.equal name r -> Some sha
              | _ -> None)
            (String.split_on_char '\n' packed)
          |> Option.value ~default:("unresolved " ^ r))
  | Some sha -> sha

let layer_metrics ~(traced : Layers.t) ~scale ~warmups ~untraced_wall ~(passes : pass_result list)
    ~(first : pass_result) =
  let spans = Layers.spans traced in
  let jobs = Array.of_list (Layers.jobs traced) in
  let dur (s : Layers.span) = scale *. (s.Layers.stop_s -. s.Layers.start_s) in
  let measured (s : Layers.span) = s.Layers.job >= warmups in
  let named name ss = List.filter (fun (s : Layers.span) -> String.equal s.Layers.name name) ss in
  let mean_s name ss =
    match named name ss with [] -> 0.0 | l -> sumf dur l /. Float.of_int (List.length l)
  in
  let mspans = List.filter measured spans in
  let ms name = 1000.0 *. mean_s name mspans and us name = 1e6 *. mean_s name mspans in
  (* one span of a given name per job at most: index them by job *)
  let per_job name =
    let h = Hashtbl.create 64 in
    List.iter (fun (s : Layers.span) -> Hashtbl.replace h s.Layers.job (dur s)) (named name mspans);
    h
  in
  let search = per_job "placer.search" and eval = per_job "simulator.eval" in
  let delta = per_job "placer.delta_sa" and parse = per_job "qasm.parse" in
  let certify = per_job "analysis.certify" in
  let over h f = Hashtbl.fold (fun j d acc -> f j d acc) h in
  let counts j = jobs.(j).Layers.counts in
  let sum_counts h f = over h (fun j _ acc -> acc +. Float.of_int (f (counts j))) 0.0 in
  let evals = sum_counts search (fun c -> c.Layers.engine_evals) in
  let runs = sum_counts search (fun c -> c.Layers.placement_runs) in
  let hits = sum_counts search (fun c -> c.Layers.route_hits) in
  let searches = sum_counts search (fun c -> c.Layers.route_searches) in
  let eval_of j = Option.value ~default:0.0 (Hashtbl.find_opt eval j) in
  let self_ms =
    over search
      (fun j d acc -> (d -. (Float.of_int (counts j).Layers.engine_evals *. eval_of j)) :: acc)
      []
  in
  let delta_moves = sum_counts delta (fun c -> c.Layers.delta_moves) in
  let delta_busy =
    over delta
      (fun j d acc -> acc +. d -. (Float.of_int (counts j).Layers.delta_evals *. eval_of j))
      0.0
  in
  let roots =
    List.filter (fun (s : Layers.span) -> s.Layers.parent < 0 && s.Layers.name = "job") mspans
  in
  let children = Hashtbl.create 256 in
  List.iter
    (fun (s : Layers.span) ->
      if s.Layers.parent >= 0 then
        Hashtbl.replace children s.Layers.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt children s.Layers.parent)))
    mspans;
  let covered (r : Layers.span) =
    Option.value ~default:0.0 (Hashtbl.find_opt children r.Layers.id)
  in
  let root_wall = sumf dur roots in
  let responses = List.filter_map Fun.id (Array.to_list first.responses) in
  let n_resp = Float.of_int (List.length responses) in
  let cache_sum f =
    sumf
      (fun (r : Protocol.response) ->
        Option.fold ~none:0.0 ~some:(fun c -> Float.of_int (f c)) r.Protocol.cache)
      responses
  in
  let jobs_timed = Float.of_int (List.length passes * Array.length first.job_ms) in
  let m name unit_ value = { name; unit_; value } in
  [
    m "simulator.eval_ms" "ms" (ms "simulator.eval");
    m "router.searches_per_eval" "count" (ratio searches evals);
    m "router.cache_hit_ratio" "ratio" (ratio hits (hits +. searches));
    m "placer.search_ms" "ms" (ms "placer.search");
    m "placer.engine_evals" "count" (ratio evals (Float.of_int (Hashtbl.length search)));
    m "placer.eval_yield" "ratio" (ratio evals runs);
    m "placer.self_ms" "ms" (if self_ms = [] then 0.0 else 1000.0 *. Stats.mean self_ms);
    m "estimator.delta_moves_per_s" "1/s" (ratio delta_moves delta_busy);
    m "placer.delta_accept_ratio" "ratio"
      (ratio (sum_counts delta (fun c -> c.Layers.delta_accepted)) delta_moves);
    m "analysis.lint_ms" "ms" (ms "analysis.lint");
    m "qasm.parse_ms" "ms" (ms "qasm.parse");
    m "qasm.parse_mb_per_s" "MB/s"
      (ratio
         (sum_counts parse (fun c -> c.Layers.parse_bytes))
         (over parse (fun _ d acc -> acc +. d) 0.0)
      /. 1e6);
    m "service.decode_us" "us" (us "service.decode");
    m "service.encode_us" "us" (us "service.encode");
    m "core.create_ms" "ms" (ms "core.create");
    m "estimator.quote_us" "us" (us "estimator.quote");
    m "estimator.bound_ms" "ms" (ms "estimator.bound");
    m "analysis.certify_ms" "ms" (ms "analysis.certify");
    m "analysis.certify_cmds_per_s" "1/s"
      (ratio
         (sum_counts certify (fun c -> c.Layers.certify_commands))
         (over certify (fun _ d acc -> acc +. d) 0.0));
    m "fabric.build_ms" "ms" (1000.0 *. mean_s "fabric.build" spans);
    m "estimator.distance_ms" "ms" (1000.0 *. mean_s "estimator.distance" spans);
    m "service.self_ms" "ms"
      (if roots = [] then 0.0
       else 1000.0 *. Stats.mean (List.map (fun r -> dur r -. covered r) roots));
    m "service.response_hit_ratio" "ratio"
      (ratio
         (sumf (fun (r : Protocol.response) -> if r.Protocol.cached then 1.0 else 0.0) responses)
         n_resp);
    m "router.shared_hit_ratio" "ratio"
      (ratio (cache_sum (fun c -> c.Protocol.shared_hits)) (cache_sum (fun c -> c.Protocol.hits)));
    m "gc.minor_words_per_job" "words" (sumf (fun p -> p.minor_words) passes /. jobs_timed);
    m "gc.promoted_words_per_job" "words" (sumf (fun p -> p.promoted_words) passes /. jobs_timed);
    m "gc.major_collections" "count"
      (Stats.median (List.map (fun p -> Float.of_int p.major_collections) passes));
    m "trace.coverage" "ratio" (ratio (sumf covered roots) root_wall);
    m "trace.overhead_ratio" "ratio" (ratio root_wall untraced_wall);
  ]

(* ------------------------------------------------------------------ run *)

let run w ~seed ~seconds ~trace_out =
  let pass = Gen.make w ~seed in
  let requests = pass.Gen.requests in
  let ids =
    Array.map
      (fun (r : Gen.request) ->
        match Protocol.job_of_line r.Gen.line with
        | Ok j -> (j, j.Protocol.id)
        | Error e -> failwith ("generated an undecodable request: " ^ e))
      requests
  in
  let jobs = Array.to_list (Array.map fst ids) in
  let ids = Array.map snd ids in
  (* the check: every answer of every pass; failures keyed by (pass, slot) *)
  let failures = Hashtbl.create 16 in
  let fail key id reason =
    Printf.eprintf "qbench: FAIL %s: %s\n%!" id reason;
    Hashtbl.replace failures key ()
  in
  let reference = ref [||] in
  let check_pass pi (p : pass_result) =
    if pi = 0 then reference := Array.map det p.responses;
    Array.iteri
      (fun i resp ->
        let id = Printf.sprintf "warmup-%d" i in
        Option.iter (fail (pi, -1 - i) id) (check pass.Gen.warmups.(i) ~id resp))
      p.warm;
    Array.iteri
      (fun i resp ->
        let r = requests.(i) and d = det resp in
        Option.iter (fail (pi, i) ids.(i)) (check r ~id:ids.(i) resp);
        if d <> !reference.(i) then
          fail (pi, i) ids.(i) (Printf.sprintf "pass %d answered differently from pass 0" pi);
        match r.Gen.repeat_of with
        | Some j when d <> !reference.(j) ->
            fail (pi, i) ids.(i) "a repeat answered differently from its original"
        | Some _ | None -> ())
      p.responses
  in
  (* timed passes, each after a few set-up samples, spread over the run;
     stop once another pass would overrun the budget.  Only the first
     pass keeps its responses, so the heap holds no earlier pass. *)
  let t_start = now () in
  let rec loop acc =
    let setup_scale = scale_of (probe ()) in
    let extra_setup_s =
      List.init extra_setups (fun _ ->
          let _, s, _ = setup w pass in
          Gc.full_major ();
          s)
    in
    let p = run_pass w pass jobs in
    check_pass (List.length acc) p;
    let p = if acc = [] then p else { p with warm = [||]; responses = [||] } in
    Gc.full_major ();
    let acc = { p with extra_setup_s; setup_scale } :: acc in
    let elapsed = now () -. t_start in
    let per_pass = elapsed /. Float.of_int (List.length acc) in
    if List.length acc >= 2 && elapsed +. per_pass > seconds then List.rev acc else loop acc
  in
  let passes = loop [] in
  let heap_peak_mb =
    Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let first = List.hd passes in
  (* the traced run: one pass re-executed layer by layer *)
  let traced = Layers.create (config w) in
  let trace_probe = probe () in
  Array.iter (fun (r : Gen.request) -> ignore (Layers.run traced r.Gen.line)) pass.Gen.warmups;
  Array.iteri
    (fun i (r : Gen.request) ->
      let j = Layers.run traced r.Gen.line in
      Option.iter (fail (0, i) ids.(i)) (agree j first.responses.(i)))
    requests;
  Option.iter (Layers.write traced) trace_out;
  let trace_scale = scale_of ((trace_probe +. probe ()) /. 2.0) in
  (* end-to-end metrics *)
  let n_passes = List.length passes in
  let attempted = n_passes * (Array.length requests + Array.length pass.Gen.warmups) in
  let failed = Hashtbl.length failures in
  let completed (p : pass_result) =
    Array.fold_left
      (fun acc r ->
        match r with Some { Protocol.verdict = Protocol.Completed _; _ } -> acc + 1 | _ -> acc)
      0 p.responses
  in
  (* quality over distinct jobs: a repeat would weigh its original twice *)
  let quality =
    List.filteri (fun i _ -> requests.(i).Gen.kind <> Gen.Repeat) (Array.to_list first.responses)
    |> List.filter_map (function
         | Some { Protocol.verdict = Protocol.Completed c; _ } ->
             Some (c.latency_us, c.lower_bound_us)
         | _ -> None)
  in
  (* The timings, scaled by each pass's host-speed factor or raw.  Every
     pass replays the same jobs, so a job's typical time is its median
     across passes. *)
  let n_ms = List.length passes * Array.length requests in
  let tail_p = tail_percentile n_ms in
  let scaled_ms scaled (p : pass_result) =
    if scaled then Array.mapi (fun i t -> t *. p.job_scale.(i)) p.job_ms else p.job_ms
  in
  let timings scaled =
    let typical_ms =
      Array.init (Array.length requests) (fun i ->
          Stats.median (List.map (fun p -> (scaled_ms scaled p).(i)) passes))
    in
    let all_ms = List.concat_map (fun p -> Array.to_list (scaled_ms scaled p)) passes in
    let setups =
      List.concat_map
        (fun p ->
          List.map (( *. ) (if scaled then p.setup_scale else 1.0)) (p.setup_s :: p.extra_setup_s))
        passes
    in
    let m name unit_ value = { name; unit_; value } in
    [
      m "setup_s" "s" (Stats.median setups);
      m "jobs_per_s" "jobs/s"
        (Float.of_int (completed first) /. (Array.fold_left ( +. ) 0.0 typical_ms /. 1000.0));
      m "job_ms_p50" "ms" (Stats.median (Array.to_list typical_ms));
      m "job_ms_tail" "ms" (Stats.percentile tail_p all_ms);
    ]
  in
  let m name unit_ value = { name; unit_; value } in
  let end_to_end =
    timings true
    @ [
        m "latency_us_geomean" "us" (geomean (List.map fst quality));
        m "bound_ratio_geomean" "ratio"
          (geomean
             (List.filter_map (fun (l, b) -> if b > 0.0 then Some (l /. b) else None) quality));
        m "heap_peak_mb" "MB" heap_peak_mb;
      ]
  in
  let untraced_wall =
    Stats.median
      (List.map (fun p -> Array.fold_left ( +. ) 0.0 (scaled_ms true p) /. 1000.0) passes)
  in
  let warmups = Array.length pass.Gen.warmups in
  let per_layer = layer_metrics ~traced ~scale:trace_scale ~warmups ~untraced_wall ~passes ~first in
  let bound_kinds =
    List.fold_left
      (fun acc (j : Layers.job) ->
        match j.Layers.counts.Layers.bound_kind with
        | Some k ->
            (k, 1 + Option.value ~default:0 (List.assoc_opt k acc)) :: List.remove_assoc k acc
        | None -> acc)
      []
      (List.filteri (fun i _ -> i >= warmups) (Layers.jobs traced))
  in
  let str s = Json.String s and int i = Json.Int i and flt f = Json.Float f in
  let context =
    [
      ("workload", str (Gen.name w));
      ("why", str (Gen.why w));
      ("seed", int seed);
      ("requests_digest", str (Gen.digest pass));
      ("seconds", flt seconds);
      ("passes", int n_passes);
      ("jobs_per_pass", int (Array.length requests));
      ("fabrics", int pass.Gen.fabrics);
      ("setup_samples", int ((1 + extra_setups) * n_passes));
      ("job_ms_tail", Json.Obj [ ("percentile", flt tail_p); ("samples", int n_ms) ]);
      ( "error_rate",
        Json.Obj
          [
            ("value", flt (ratio (Float.of_int failed) (Float.of_int attempted)));
            ("unit", str "fraction");
          ] );
      ( "bound_kinds",
        Json.Obj (List.map (fun (k, n) -> (k, int n)) (List.sort compare bound_kinds)) );
      ("service_width", int limits.Scheduler.jobs);
      ( "service_width_why",
        str "closed loop, one client: the daemon answers one line before reading the next" );
      ("nproc", str (Option.value ~default:"unknown" (Sys.getenv_opt "QBENCH_NPROC")));
      ("recommended_domain_count", int (Domain.recommended_domain_count ()));
      ("ocaml_version", str Build_info.ocaml_version);
      ("flambda", Json.Bool Build_info.flambda);
      ("commit", str (git_commit ()));
      ( "host_speed",
        Json.Obj
          [
            ("reference_probe_ms", flt (1000.0 *. reference_probe_s));
            ( "pass_scale",
              Json.List (List.map (fun p -> flt (Stats.mean (Array.to_list p.job_scale))) passes) );
            ("trace_scale", flt trace_scale);
            ( "raw",
              Json.Obj
                (List.map
                   (fun x -> (x.name, Json.Obj [ ("value", flt x.value); ("unit", str x.unit_) ]))
                   (timings false)) );
          ] );
      ("trace_file", match trace_out with Some f -> str f | None -> Json.Null);
    ]
  in
  { attempted; failed; end_to_end; per_layer; context }
