(* Bench smoke test, wired into `dune runtest` via the bench-smoke alias
   (`dune build @bench-smoke` runs it alone).  Each group below exercises
   one subsystem's performance machinery at a small size and fails loudly
   when it stops being exact or stops paying off: the reused routing
   workspace, the domain-pool searches, the estimator and its pre-screen,
   certification and the certified bound, fault campaigns, the engine's
   route cache over the six Table-1 circuits, the incremental delta
   estimator and its >= 10x speedup over from-scratch estimates, the
   portfolio race, the service batch against cold single-job services, and
   the allocation ceilings of the warm engine run, the delta-SA move loop,
   the certificate digest, the whole certification and the estimator's
   distance tables.  The measured
   figures are printed next to their bounds.  Throughput is measured by
   qbench/; the only wall-clock checks here are two relative floors, each
   timed within this process: delta-SA >= 10x the full-estimate loop, and
   the warm service batch <= 1.15x the cold single-job services. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("bench-smoke: " ^ m); exit 1) fmt

let check_eq name a b = if not (Float.abs (a -. b) < 1e-9) then fail "%s: %.9g <> %.9g" name a b

let solution_latency label = function
  | Ok (s : Qspr.Mapper.solution) -> s.Qspr.Mapper.latency
  | Error e -> fail "%s: %s" label (Qspr.Mapper.error_to_string e)

(* [strategy] on [ctx] at [m] seeds or runs, on [jobs] domains, routing
   only the [prescreen] best-estimated candidates *)
let map_at ~m ?(jobs = 1) ?prescreen ?(sa_moves = Qspr.Config.default.Qspr.Config.sa_moves)
    strategy ctx =
  let tune c =
    Qspr.Config.(
      c |> with_m m |> with_jobs jobs |> with_prescreen prescreen |> with_sa_moves sa_moves)
  in
  Qspr.Mapper.map strategy (Qspr.Mapper.with_search tune ctx)

let () =
  let fabric = Qspr.Experiments.fabric () in
  (* workspace group: fresh vs reused routing on a few trap pairs *)
  let comp = match Fabric.Component.extract fabric with Ok c -> c | Error e -> fail "%s" e in
  let graph = Fabric.Graph.build comp in
  let cong = Router.Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
  let w = Array.make (Fabric.Graph.num_edges graph) 0.0 in
  Router.Congestion.track_weights cong ~turn_cost:10.0 graph w;
  let ntraps = Array.length (Fabric.Component.traps comp) in
  let ws = Router.Workspace.create () in
  List.iter
    (fun i ->
      let src = Fabric.Graph.trap_node graph (i * 17 mod ntraps) in
      let dst = Fabric.Graph.trap_node graph ((ntraps - 1 - (i * 5)) mod ntraps) in
      let cost label shortest =
        match shortest ~src ~dst with Some r -> r.Router.Dijkstra.cost | None -> fail "%s: no route" label
      in
      check_eq "dijkstra fresh vs reused"
        (cost "fresh" (Router.Dijkstra.shortest_path graph ~weights:w))
        (cost "reused" (Router.Dijkstra.shortest_path ~workspace:ws graph ~weights:w));
      (* the PathFinder's guided search: A* over a lower-bound table *)
      let guided ~src ~dst =
        let lb = Router.Lower_bound.toward (Router.Lower_bound.create graph ~turn_cost:10.0) dst in
        Router.Dijkstra.run_into ~heuristic:lb ws graph ~weights:w ~src ~dst;
        Router.Dijkstra.path_to ws graph ~dst
      in
      check_eq "astar vs dijkstra reused"
        (cost "astar" guided)
        (cost "reused" (Router.Dijkstra.shortest_path ~workspace:ws graph ~weights:w)))
    [ 0; 1; 2; 3 ];
  (* parallel group: serial and pooled searches agree latency-for-latency *)
  let p = List.assoc "[[5,1,3]]" (Circuits.Qecc.all ()) in
  let ctx = match Qspr.Mapper.create ~fabric p with Ok c -> c | Error e -> fail "%s" e in
  check_eq "monte carlo jobs1 vs jobs2"
    (solution_latency "mc jobs1" (map_at ~m:4 ~jobs:1 Monte_carlo ctx))
    (solution_latency "mc jobs2" (map_at ~m:4 ~jobs:2 Monte_carlo ctx));
  check_eq "mvfb jobs1 vs jobs2"
    (solution_latency "mvfb jobs1" (map_at ~m:2 ~jobs:1 Mvfb ctx))
    (solution_latency "mvfb jobs2" (map_at ~m:2 ~jobs:2 Mvfb ctx));
  (* estimator group: pure estimates, pooled fan-out bit-identity, and the
     pre-screened search contract *)
  let model = Qspr.Mapper.estimator_model ctx in
  let nq = Qasm.Program.num_qubits p in
  let pool =
    Array.init 8 (fun i ->
        Placer.Center.place_permuted (Ion_util.Rng.derive 7 ~index:i) (Qspr.Mapper.component ctx)
          ~num_qubits:nq)
  in
  let seq = Array.map (Estimator.Model.estimate model) pool in
  let fanned =
    Ion_util.Domain_pool.with_pool ~jobs:2 (fun dp ->
        Ion_util.Domain_pool.map dp (Estimator.Model.estimate model) pool)
  in
  Array.iteri (fun i a -> check_eq "estimate pooled vs sequential" a fanned.(i)) seq;
  Array.iteri (fun i a -> check_eq "estimate repeated" a (Estimator.Model.estimate model pool.(i))) seq;
  let plain =
    match map_at ~m:8 Monte_carlo ctx with
    | Ok s -> s
    | Error e -> fail "mc plain: %s" (Qspr.Mapper.error_to_string e)
  in
  let pre1 =
    match map_at ~m:8 ~jobs:1 ~prescreen:3 Monte_carlo ctx with
    | Ok s -> s
    | Error e -> fail "mc prescreen jobs1: %s" (Qspr.Mapper.error_to_string e)
  in
  let pre2 =
    match map_at ~m:8 ~jobs:2 ~prescreen:3 Monte_carlo ctx with
    | Ok s -> s
    | Error e -> fail "mc prescreen jobs2: %s" (Qspr.Mapper.error_to_string e)
  in
  check_eq "prescreen jobs1 vs jobs2" pre1.Qspr.Mapper.latency pre2.Qspr.Mapper.latency;
  if pre1.Qspr.Mapper.initial_placement <> pre2.Qspr.Mapper.initial_placement then
    fail "prescreen jobs1 vs jobs2: placements differ";
  if pre1.Qspr.Mapper.engine_evals > 3 then
    fail "prescreen routed %d > k=3 candidates" pre1.Qspr.Mapper.engine_evals;
  if not (List.mem pre1.Qspr.Mapper.latency plain.Qspr.Mapper.run_latencies) then
    fail "prescreened winner %.1f not among the plain run latencies" pre1.Qspr.Mapper.latency;
  (* analysis group: every benchmarked solution must survive independent
     replay, and the pooled search must stay bit-deterministic *)
  let cert = Analysis.Certify.of_solution ctx pre1 in
  if not cert.Analysis.Certify.valid then
    fail "prescreened solution fails certification: %s"
      (Format.asprintf "%a" Analysis.Certify.pp cert);
  (match
     Analysis.Determinism.check ~label:"mc runs=4" ~jobs:2 (fun ~jobs ->
         map_at ~m:4 ~jobs Monte_carlo ctx)
   with
  | [] -> ()
  | f :: _ ->
      fail "parallel determinism violated: %s" (Format.asprintf "%a" Analysis.Finding.pp f));
  (* bound group: every solution carries an admissible certified bound at or
     below its achieved latency, bit-identical across job counts and equal
     to the recomputation, and the auditor finds nothing wrong with an
     honest solution *)
  if pre1.Qspr.Mapper.lower_bound_us > pre1.Qspr.Mapper.latency +. 1e-6 then
    fail "certified bound %.1f us exceeds the achieved latency %.1f us"
      pre1.Qspr.Mapper.lower_bound_us pre1.Qspr.Mapper.latency;
  if
    Int64.bits_of_float pre1.Qspr.Mapper.lower_bound_us
    <> Int64.bits_of_float pre2.Qspr.Mapper.lower_bound_us
  then fail "certified bound differs between jobs=1 and jobs=2";
  let recomputed =
    Qspr.Mapper.certified_bound ctx ~initial_placement:pre1.Qspr.Mapper.initial_placement
  in
  if
    Int64.bits_of_float recomputed.Estimator.Bound.lower_bound_us
    <> Int64.bits_of_float pre1.Qspr.Mapper.lower_bound_us
  then fail "solution's certified bound is not the recomputation";
  let audit_report = Analysis.Bound.audit ctx pre1 in
  if Analysis.Finding.count Analysis.Finding.Error audit_report.Analysis.Bound.findings > 0 then
    fail "bound auditor flagged an honest solution";
  (* faults group: a survivability campaign over a degraded fabric is
     bit-identical at any job count *)
  let campaign jobs =
    match
      Fault.campaign ~jobs
        ~config:Qspr.Config.(default |> with_m 2)
        ~seed:11 ~levels:[ 0; 1; 2 ] ~trials:3
        ~fabric:(Fabric.Layout.linear ~traps:6 ())
        p
    with
    | Ok r -> Ion_util.Json.to_string (Fault.to_json r)
    | Error e -> fail "fault campaign (jobs=%d): %s" jobs e
  in
  if not (String.equal (campaign 1) (campaign 2)) then
    fail "fault campaign: jobs=1 vs jobs=2 reports differ";
  (* router group: the engine's route cache must change counters only — on
     every Table-1 circuit a warm cache serves strictly fewer live searches
     yet returns the same latency bits and trace *)
  let placement = Placer.Center.place (Qspr.Mapper.component ctx) ~num_qubits:nq in
  let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  List.iter
    (fun (name, cp) ->
      let cctx = match Qspr.Mapper.create ~fabric cp with Ok c -> c | Error e -> fail "%s" e in
      let cplace =
        Placer.Center.place (Qspr.Mapper.component cctx) ~num_qubits:(Qasm.Program.num_qubits cp)
      in
      let cfg = Qspr.Mapper.config cctx in
      let engine route_cache =
        match
          Simulator.Engine.run ~graph:(Qspr.Mapper.graph cctx) ~timing:cfg.Qspr.Config.timing
            ~policy:cfg.Qspr.Config.qspr_policy ~dag:(Qspr.Mapper.dag cctx)
            ~priorities:(Qspr.Mapper.qspr_priorities cctx) ~placement:cplace ?route_cache ()
        with
        | Ok r -> r
        | Error e -> fail "%s engine: %s" name (Simulator.Engine.string_of_error e)
      in
      let r0 = engine None in
      let cache = Router.Route_cache.create () in
      let r1 = engine (Some cache) in
      let r2 = engine (Some cache) in
      if
        not
          (same_bits r0.Simulator.Engine.latency r1.Simulator.Engine.latency
          && same_bits r0.Simulator.Engine.latency r2.Simulator.Engine.latency)
      then
        fail "%s: cached engine latency diverged from uncached (%.9g, %.9g, %.9g)" name
          r0.Simulator.Engine.latency r1.Simulator.Engine.latency r2.Simulator.Engine.latency;
      if r0.Simulator.Engine.trace <> r2.Simulator.Engine.trace then
        fail "%s: warm route cache changed the trace" name;
      (* a cache serves lookups, it never adds or drops one: hits plus live
         searches equal the uncached run's searches, cold (repeats within
         the run) and warm *)
      List.iter
        (fun (label, (r : Simulator.Engine.result)) ->
          if r.route_searches + r.route_cache_hits <> r0.Simulator.Engine.route_searches then
            fail "%s: %s route cache ran %d searches + %d hits, uncached %d" name label
              r.route_searches r.route_cache_hits r0.Simulator.Engine.route_searches)
        [ ("cold", r1); ("warm", r2) ];
      if r2.Simulator.Engine.route_searches >= r1.Simulator.Engine.route_searches then
        fail "%s: warm route cache did not reduce searches (%d vs %d)" name
          r2.Simulator.Engine.route_searches r1.Simulator.Engine.route_searches;
      if r2.Simulator.Engine.route_cache_hits = 0 then fail "%s: warm route cache never hit" name)
    (Circuits.Qecc.all ());
  (* delta group: the incremental estimator's transactional contract — undo
     restores the latency bitwise, a committed chain of swaps agrees with a
     from-scratch evaluation, and resync reports zero drift *)
  let delta = Estimator.Delta.create model placement in
  let lat0 = Estimator.Delta.latency delta in
  ignore (Estimator.Delta.apply_swap delta 0 3);
  Estimator.Delta.undo delta;
  if Estimator.Delta.latency delta <> lat0 then fail "delta undo did not restore the latency";
  for k = 0 to 19 do
    ignore (Estimator.Delta.apply_swap delta (k mod nq) ((k + 2) mod nq));
    Estimator.Delta.commit delta
  done;
  let scratch = Estimator.Delta.eval model (Estimator.Delta.placement delta) in
  if Estimator.Delta.latency delta <> scratch then
    fail "delta swap chain diverged from a from-scratch evaluation (%.9g vs %.9g)"
      (Estimator.Delta.latency delta) scratch;
  if Estimator.Delta.resync delta <> 0.0 then fail "delta resync reported drift";
  (* delta speedup: on every Table-1 circuit a greedy delta-SA proposal
     loop (draw, apply with the Metropolis cut-off, commit or undo) must
     run at least 10x the candidates per second of the same loop paying one
     from-scratch estimate per candidate.  Each side keeps the best of
     three identical windows so scheduler noise cannot mask the gap. *)
  let best_of_3 f =
    ignore (f ());
    Float.max (f ()) (Float.max (f ()) (f ()))
  in
  let timed f =
    let t0 = Ion_util.Clock.now_s () in
    let v = f () in
    (v, Ion_util.Clock.now_s () -. t0)
  in
  let per_s n f =
    let (), seconds = timed f in
    float_of_int n /. Float.max 1e-9 seconds
  in
  let min_speedup =
    List.fold_left
      (fun acc (name, dp) ->
        let dctx = match Qspr.Mapper.create ~fabric dp with Ok c -> c | Error e -> fail "%s" e in
        let dmodel = Qspr.Mapper.estimator_model dctx in
        let comp = Qspr.Mapper.component dctx in
        let nq = Qasm.Program.num_qubits dp in
        let num_traps = Array.length (Fabric.Component.traps comp) in
        let pool = Array.of_list (Placer.Center.center_traps comp (min (3 * nq) num_traps)) in
        let start = Placer.Center.place comp ~num_qubits:nq in
        let delta_loop moves () =
          let d = Estimator.Delta.create dmodel start in
          per_s moves (fun () ->
              ignore
                (Placer.Annealing.greedy_delta ~rng:(Ion_util.Rng.create 2012) ~pool d ~moves))
        in
        let module P = Placer.Annealing.Proposal in
        let full_loop evals () =
          let rng = Ion_util.Rng.create 2012 in
          let tracker = P.create ~num_traps pool start in
          let current = Array.copy start in
          let cur = ref (Estimator.Model.estimate dmodel current) in
          let try_candidate cand =
            let lat = Estimator.Model.estimate dmodel cand in
            if lat <= !cur then begin
              Array.blit cand 0 current 0 nq;
              cur := lat;
              true
            end
            else false
          in
          per_s evals (fun () ->
              for _ = 1 to evals do
                match P.draw tracker rng ~num_qubits:nq with
                | P.Stay -> ()
                | P.Swap (i, j) ->
                    let cand = Array.copy current in
                    cand.(i) <- current.(j);
                    cand.(j) <- current.(i);
                    ignore (try_candidate cand)
                | P.Relocate (q, dst) ->
                    let cand = Array.copy current in
                    let src = cand.(q) in
                    cand.(q) <- dst;
                    if try_candidate cand then P.relocate tracker ~src ~dst
              done)
        in
        let ratio = best_of_3 (delta_loop 20_000) /. best_of_3 (full_loop 1_000) in
        if ratio < 10.0 then
          fail "%s: delta-SA only %.1fx faster than full-estimate SA (need >= 10x)" name ratio;
        Float.min acc ratio)
      infinity (Circuits.Qecc.all ())
  in
  Printf.printf "bench-smoke: delta-SA vs full-estimate SA at least %.1fx faster (floor 10x)\n"
    min_speedup;
  (* portfolio group: the five-strategy race is bit-identical across job
     counts and never loses to the classic anneal at a matched budget *)
  let race jobs =
    match map_at ~m:2 ~sa_moves:1_000 ~jobs Portfolio ctx with
    | Ok s -> s
    | Error e -> fail "portfolio jobs=%d: %s" jobs (Qspr.Mapper.error_to_string e)
  in
  let race1 = race 1 and race2 = race 2 in
  check_eq "portfolio jobs1 vs jobs2" race1.Qspr.Mapper.latency race2.Qspr.Mapper.latency;
  if race1.Qspr.Mapper.initial_placement <> race2.Qspr.Mapper.initial_placement then
    fail "portfolio jobs1 vs jobs2: placements differ";
  let anneal = solution_latency "sa" (map_at ~m:2 Annealing ctx) in
  if race1.Qspr.Mapper.latency > anneal then
    fail "portfolio %.1f us lost to the classic anneal %.1f us" race1.Qspr.Mapper.latency anneal;
  (* service group: the six Table-1 circuits as one mvfb m=2 batch
     (seeds 2012+i).  Its deterministic lines are byte-identical at jobs
     1/2/4 and to sequential submission; every response equals an
     independent Mapper run (latency bits, certificate digest) and
     certifies; the shared warm caches do strictly fewer searches and bound
     builds than six cold single-job services, in no more than 1.15x their
     wall time (slack for scheduler noise on a loaded machine); and a repeat of the first job on the warm service searches
     less, hits the shared snapshot and keeps its digest *)
  let module P = Service.Protocol in
  let module S = Service.Scheduler in
  let sjobs =
    List.mapi
      (fun i (name, _) -> P.make_job ~seed:(2012 + i) ~placer:"mvfb" ~m:2 ~id:name (P.Builtin name))
      (Circuits.Qecc.all ())
  in
  let det r = P.response_to_line ~deterministic:true r in
  let same_lines label a b =
    List.iter2
      (fun (x : P.response) y ->
        if not (String.equal (det x) (det y)) then fail "service: %s differ on %s" label x.P.job_id)
      a b
  in
  let batch width = S.run_batch (S.create ~limits:{ S.default_limits with S.jobs = width } ()) sjobs in
  let warm, warm_s = timed (fun () -> batch 1) in
  same_lines "jobs=1 vs jobs=2 responses" warm (batch 2);
  same_lines "jobs=1 vs jobs=4 responses" warm (batch 4);
  let cold, cold_s = timed (fun () -> List.map (fun j -> S.submit (S.create ()) j) sjobs) in
  let service = S.create () in
  same_lines "batch vs sequential responses" warm (List.map (S.submit service) sjobs);
  let completed (r : P.response) =
    match (r.P.verdict, r.P.cache) with
    | P.Completed { latency_us; certificate_digest; certificate_valid; _ }, Some stats ->
        (latency_us, certificate_digest, certificate_valid, stats)
    | _ -> fail "service: %s did not complete with cache counters" r.P.job_id
  in
  List.iter2
    (fun (r : P.response) (j : P.job) ->
      let latency, digest, valid, _ = completed r in
      let config =
        Qspr.Config.(default |> with_jobs 1 |> with_seed j.P.seed |> with_m 2 |> with_budget no_budget)
      in
      let program = List.assoc j.P.id (Circuits.Qecc.all ()) in
      let jctx = match Qspr.Mapper.create ~fabric ~config program with Ok c -> c | Error e -> fail "%s" e in
      let sol =
        match Qspr.Mapper.map Mvfb jctx with
        | Ok s -> s
        | Error e -> fail "service reference %s: %s" j.P.id (Qspr.Mapper.error_to_string e)
      in
      if not (same_bits latency sol.Qspr.Mapper.latency) then
        fail "service: %s batch latency %.9g diverged from the independent run %.9g" j.P.id latency
          sol.Qspr.Mapper.latency;
      if not (Int64.equal digest (Analysis.Certify.of_solution jctx sol).Analysis.Certify.digest)
      then fail "service: %s certificate digest diverged from the independent run" j.P.id;
      if not valid then fail "service: %s did not certify" j.P.id)
    warm sjobs;
  let searches responses =
    List.fold_left
      (fun acc r ->
        let _, _, _, stats = completed r in
        acc + stats.P.misses + stats.P.bound_builds)
      0 responses
  in
  let warm_searches = searches warm and cold_searches = searches cold in
  if warm_searches >= cold_searches then
    fail "service: warm batch ran %d searches, cold services %d (want strictly fewer)" warm_searches
      cold_searches;
  Printf.printf "bench-smoke: service batch %.2f s warm vs %.2f s cold, ratio %.2f (ceiling 1.15)\n"
    warm_s cold_s (warm_s /. cold_s);
  if warm_s > cold_s *. 1.15 then
    fail "service: warm batch %.2f s slower than cold services %.2f s" warm_s cold_s;
  let first = List.hd sjobs in
  let _, dig0, _, s0 = completed (List.hd cold) in
  let _, dig1, _, s1 = completed (S.submit service { first with P.id = "repeat" }) in
  if s1.P.misses >= s0.P.misses then
    fail "service: warm repeat ran %d searches, cold ran %d (want strictly fewer)" s1.P.misses
      s0.P.misses;
  if s1.P.shared_hits = 0 then fail "service: warm repeat never hit the shared snapshot";
  if not (Int64.equal dig0 dig1) then
    fail "service: warm repeat's certificate digest diverged from the cold job";
  (* memory group: the flat-arena warm path must stay allocation-lean.
     After two warm-up evaluations (route cache filled, arenas sized), the
     per-evaluation minor-word cost of a forward schedule-and-route on the
     two small Table-1 circuits must stay at least 5x below the pre-arena
     engine: the full-run ceilings are a fifth of the
     qspr/circuits/[[5_1_3]] (69,091 words) and qspr/circuits/[[7_1_3]]
     (72,714 words) minor_words_per_run rows of BENCH_pr8.json, and the
     full run ([Mapper.replay]) measures about 9.5k and 10.1k.  A scored
     run ([Mapper.run_forward], what every placement candidate costs)
     builds no command list and no statistics array and measures about
     5.2k and 5.5k; its ceilings sit below the full run's readings, so a
     scored run that materializes its trace again trips them.  A
     regression that reintroduces per-edge or per-event list allocation on
     the engine's hot path trips either gate immediately, long before it
     shows in wall-clock noise.  Domain-local accounting: jobs=1 runs
     inline, so Gc.minor_words sees exactly this domain's allocations. *)
  let warm_minor_words ~scored name =
    let wp = List.assoc name (Circuits.Qecc.all ()) in
    let wctx = match Qspr.Mapper.create ~fabric wp with Ok c -> c | Error e -> fail "%s" e in
    let wplace =
      Placer.Center.place (Qspr.Mapper.component wctx)
        ~num_qubits:(Qasm.Program.num_qubits wp)
    in
    let check = function
      | Ok _ -> ()
      | Error e -> fail "memory %s: %s" name (Simulator.Engine.string_of_error e)
    in
    let eval () =
      if scored then check (Qspr.Mapper.run_forward wctx wplace)
      else check (Qspr.Mapper.replay wctx Placer.Search.Forward wplace)
    in
    eval ();
    eval ();
    let reps = 8 in
    (* Gc.minor_words reads the allocation pointer directly — precise on
       this domain, unlike quick_stat's per-collection counters *)
    let w0 = Gc.minor_words () in
    for _ = 1 to reps do
      eval ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int reps
  in
  List.iter
    (fun (name, kind, scored, ceiling) ->
      let words = warm_minor_words ~scored name in
      Printf.printf "bench-smoke: %s warm %s eval %.0f minor words (ceiling %.0f)\n" name kind
        words ceiling;
      if words > ceiling then
        fail "%s: warm %s evaluation allocates %.0f minor words (ceiling %.0f) — arena regression"
          name kind words ceiling)
    [
      ("[[5,1,3]]", "full", false, 13_818.0);
      ("[[7,1,3]]", "full", false, 14_542.0);
      ("[[5,1,3]]", "scored", true, 7_000.0);
      ("[[7,1,3]]", "scored", true, 7_400.0);
    ];
  (* The delta-SA move loop must stay allocation-lean: per move, draw the
     proposal, apply it (cut off or not), accept or undo.  Averaged over
     50k moves of [[9,1,3]] — the few routed evaluations included, after a
     warm-up anneal has sized the arenas — it measures about 8.5 words per
     move (a proposal variant and the boxed floats crossing the Delta/Rng
     boundaries).  Rebuilding the cutoff and acceptance closures per move
     reads about 20, a boxed-int64 generator state about 105, so a 16-word
     ceiling catches either deterministically. *)
  let anneal_words_per_move ~moves =
    let name = "[[9,1,3]]" in
    let ap = List.assoc name (Circuits.Qecc.all ()) in
    let actx = match Qspr.Mapper.create ~fabric ap with Ok c -> c | Error e -> fail "%s" e in
    let run () =
      match
        Placer.Annealing.search_delta ~rng:(Ion_util.Rng.create 1) ~moves
          ~model:(Qspr.Mapper.estimator_model actx) ~evaluate:(Qspr.Mapper.run_forward actx)
          (Qspr.Mapper.component actx) ~num_qubits:(Qasm.Program.num_qubits ap)
      with
      | Ok o -> ignore o.Placer.Annealing.moves
      | Error e -> fail "memory %s search_delta: %s" name (Simulator.Engine.string_of_error e)
    in
    run ();
    let w0 = Gc.minor_words () in
    run ();
    (Gc.minor_words () -. w0) /. float_of_int moves
  in
  let words = anneal_words_per_move ~moves:50_000 and ceiling = 16.0 in
  Printf.printf "bench-smoke: [[9,1,3]] search_delta %.1f minor words/move (ceiling %.0f)\n" words
    ceiling;
  if words > ceiling then
    fail "[[9,1,3]]: search_delta allocates %.1f minor words per move (ceiling %.0f)" words ceiling;
  (* A route search allocates nothing per edge or push (doc/memory.md).
     200 A* searches between QUALE traps under Eq. 2 weights read 2
     minor words each (the heuristic's option), at turn cost 10 (packed
     queue keys) and at 10/3 (keys off the half-unit grid, so every
     search starts over on pair comparisons).  A float boxed per push,
     such as one passed to a helper function, read 132, so a 16-word
     ceiling catches it. *)
  List.iter
    (fun turn_cost ->
      let cong = Router.Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
      let sw = Array.make (Fabric.Graph.num_edges graph) 0.0 in
      Router.Congestion.track_weights cong ~turn_cost graph sw;
      let store = Router.Lower_bound.create graph ~turn_cost in
      let tables =
        Array.init ntraps (fun t -> Router.Lower_bound.toward store (Fabric.Graph.trap_node graph t))
      in
      let search k =
        let s = k * 17 mod ntraps and d = ((k * 37) + 11) mod ntraps in
        Router.Dijkstra.run_into ~heuristic:tables.(d) ws graph ~weights:sw
          ~src:(Fabric.Graph.trap_node graph s) ~dst:(Fabric.Graph.trap_node graph d)
      in
      search 0;
      let w0 = Gc.minor_words () in
      for k = 1 to 200 do
        search k
      done;
      let words = (Gc.minor_words () -. w0) /. 200.0 and ceiling = 16.0 in
      Printf.printf "bench-smoke: QUALE A* search at turn cost %g: %.1f minor words/search (ceiling %.0f)\n"
        turn_cost words ceiling;
      if words > ceiling then
        fail "A* search at turn cost %g allocates %.1f minor words (ceiling %.0f)" turn_cost words ceiling)
    [ 10.0; 10.0 /. 3.0 ];
  (* The certificate digest streams its canonical rendering through FNV-1a
     without Printf or a trace-sized string.  On a [[9,1,3]] center mapping
     it allocates about 1.4 minor words per command (the chunk buffer, the
     cache of rendered floats and a boxed hash per flush); the Printf
     renderer read 234 and a streaming
     hash over a captured int64 ref about 105, so a 16-word ceiling catches
     either deterministically. *)
  let cname = "[[9,1,3]]" in
  let cctx =
    match Qspr.Mapper.create ~fabric (List.assoc cname (Circuits.Qecc.all ())) with
    | Ok c -> c
    | Error e -> fail "%s" e
  in
  let csol =
    match Qspr.Mapper.map Center cctx with
    | Ok s -> s
    | Error e -> fail "memory %s certify: %s" cname (Qspr.Mapper.error_to_string e)
  in
  let words_per_command f =
    ignore (f ());
    let reps = 20 in
    let w0 = Gc.minor_words () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Gc.minor_words () -. w0) /. float_of_int (reps * List.length csol.Qspr.Mapper.trace)
  in
  let words = words_per_command (fun () -> Analysis.Certify.digest_trace csol.Qspr.Mapper.trace)
  and ceiling = 16.0 in
  Printf.printf "bench-smoke: %s certificate digest %.1f minor words/command (ceiling %.0f)\n"
    cname words ceiling;
  if words > ceiling then
    fail "%s: the certificate digest allocates %.1f minor words per command (ceiling %.0f)" cname
      words ceiling;
  (* The whole certification replays into int-indexed arrays and reuses
     its fabric- and trace-sized columns per domain, so the same mapping
     certifies in about 10 minor words per command: the program-sized
     arrays, the digest's buffers and a boxed gate delay per gate event.
     The replay keyed on (qubit, resource) tuples in a polymorphic
     Hashtbl read about 77, so a 24-word ceiling catches a return to it. *)
  let words = words_per_command (fun () -> Analysis.Certify.of_solution cctx csol)
  and ceiling = 24.0 in
  Printf.printf "bench-smoke: %s certification %.1f minor words/command (ceiling %.0f)\n" cname
    words ceiling;
  if words > ceiling then
    fail "%s: certification allocates %.1f minor words per command (ceiling %.0f)" cname words
      ceiling;
  (* Estimator.Distance.build runs no sweep: it makes a Lower_bound
     store, which tabulates the base weights and allocates one empty
     write-once cell per graph node (QUALE 45x85: 1,170 cells, 2,340
     minor words).  Fully materialized (every trap's table read, then
     the dense [tables] pair), the store runs its 130 sweeps through
     Dijkstra's one relax loop and keeps each table as a 1,170-float
     array, which goes to the major heap: about 2.9k minor words in
     all, most of them the cells.  Sampling a 130-float row per trap on top of the cells, as the
     trap-indexed rows once did, adds about 17.3k and sits at the
     ceiling; the closure relax loop with rows filled through a closure
     over the workspace read about 644k (a boxed key per push, a boxed
     float per node of every row).  A 20k ceiling catches any of them. *)
  let materialize () =
    let d = Estimator.Distance.build graph ~turn_cost:10.0 in
    let swept = Router.Lower_bound.built (Estimator.Distance.store d) in
    if swept <> 0 then fail "QUALE 45x85: Distance.build swept %d tables before any read" swept;
    for a = 0 to Estimator.Distance.num_traps d - 1 do
      ignore (Estimator.Distance.row d a)
    done;
    ignore (Estimator.Distance.tables d)
  in
  let words =
    materialize ();
    let w0 = Gc.minor_words () in
    materialize ();
    Gc.minor_words () -. w0
  and ceiling = 20_000.0 in
  Printf.printf
    "bench-smoke: QUALE 45x85 Distance.build, every row and tables %.0f minor words (ceiling \
     %.0f)\n"
    words ceiling;
  if words > ceiling then
    fail "QUALE 45x85: a materialized Distance table set allocates %.0f minor words (ceiling %.0f)"
      words ceiling;
  print_endline
    "bench-smoke: OK (workspace routing exact, parallel search exact, estimator pure, \
     prescreen consistent, winner certified, certified bound admissible and deterministic, \
     fault campaign deterministic, route cache bit-identical with fewer searches on all six \
     Table-1 circuits, delta transactions exact, delta-SA >= 10x \
     full-estimate SA on all six, portfolio deterministic and never worse than the anneal, \
     six-circuit service batch identical at jobs 1/2/4 and to independent certified runs with \
     fewer searches than cold services in <= 1.15x their wall time, warm full runs >= 5x \
     leaner than BENCH_pr8, scored runs, delta-SA move loop, certificate digest, certification \
     and distance tables under their allocation ceilings)"
