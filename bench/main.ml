(* Benchmark harness.

   Two parts:
   1. Regenerates the rows/series of every table and figure in the paper's
      evaluation (reduced m so the run stays interactive; use
      `dune exec bin/experiments.exe` for the full protocol).
   2. Bechamel micro-benchmarks — one Test.make per table/figure workload
      plus ablations of QSPR's design choices (turn-aware routing, channel
      multiplexing, dual-operand movement). *)

open Bechamel
open Toolkit

let fabric = Qspr.Experiments.fabric ()

let ctx_of ?config name =
  let p = List.assoc name (Circuits.Qecc.all ()) in
  match Qspr.Mapper.create ~fabric ?config p with
  | Ok c -> c
  | Error e -> failwith e

let solution_latency = function
  | Ok (s : Qspr.Mapper.solution) -> s.Qspr.Mapper.latency
  | Error e -> failwith (Qspr.Mapper.error_to_string e)

let engine_latency = function
  | Ok (r : Simulator.Engine.result) -> r.Simulator.Engine.latency
  | Error e -> failwith (Simulator.Engine.string_of_error e)

(* ------------------------------------------------------- table printers *)

let print_tables () =
  print_endline "=== Table 1 (reduced protocol: m=3/6; full: bin/experiments.exe table1) ===";
  let rows = Qspr.Experiments.table1 ~m_small:3 ~m_large:6 () in
  print_string (Qspr.Report.render_table1 rows);
  print_newline ();
  print_endline "=== Table 2 (reduced protocol: m=6; full: bin/experiments.exe table2) ===";
  let rows2 = Qspr.Experiments.table2 ~m:6 () in
  print_string (Qspr.Report.render_table2 rows2);
  print_newline ();
  print_string (Qspr.Experiments.table2_with_paper rows2);
  print_newline ();
  print_endline "=== Sensitivity to m (reduced: ms = 1,2,5) ===";
  List.iter
    (fun (m, mvfb, runs, mc) ->
      Printf.printf "  m=%3d  MVFB %7.1f us (%d runs)  MC %7.1f us\n" m mvfb runs mc)
    (Qspr.Experiments.sensitivity ~ms:[ 1; 2; 5 ] ());
  print_newline ();
  print_endline "=== Figure 5 (turn-aware vs turn-blind routing) ===";
  print_string (Qspr.Experiments.fig5 ());
  print_newline ()

(* -------------------------------------------------------------- benches *)

(* Table 1 workloads: one MVFB local search vs an equal-budget MC search on
   the [[5,1,3]] circuit. *)
let bench_table1 =
  let ctx = ctx_of "[[5,1,3]]" in
  Test.make_grouped ~name:"table1"
    [
      Test.make ~name:"mvfb_m1" (Staged.stage (fun () -> solution_latency (Qspr.Mapper.map_mvfb ~m:1 ctx)));
      Test.make ~name:"mc_runs6"
        (Staged.stage (fun () -> solution_latency (Qspr.Mapper.map_monte_carlo ~runs:6 ctx)));
    ]

(* Table 2 workloads: one QSPR forward run, one QUALE run, and the ideal
   baseline computation, on the mid-size [[9,1,3]] circuit. *)
let bench_table2 =
  let ctx = ctx_of "[[9,1,3]]" in
  let placement = Placer.Center.place (Qspr.Mapper.component ctx) ~num_qubits:9 in
  Test.make_grouped ~name:"table2"
    [
      Test.make ~name:"qspr_forward_run"
        (Staged.stage (fun () -> engine_latency (Qspr.Mapper.run_forward ctx placement)));
      Test.make ~name:"quale_run" (Staged.stage (fun () -> solution_latency (Qspr.Quale_mode.map ctx)));
      Test.make ~name:"ideal_baseline" (Staged.stage (fun () -> Qspr.Mapper.ideal_latency ctx));
    ]

(* Figure 4 workload: building the 45x85 fabric model (generate cells,
   extract components, build the turn-aware graph). *)
let bench_fig4 =
  Test.make_grouped ~name:"fig4"
    [
      Test.make ~name:"fabric_model_build"
        (Staged.stage (fun () ->
             let lay = Fabric.Layout.quale_45x85 () in
             match Fabric.Component.extract lay with
             | Ok comp -> Fabric.Graph.num_nodes (Fabric.Graph.build comp)
             | Error e -> failwith e));
    ]

(* Figure 5 workload: corner-to-corner Dijkstra under both weight models. *)
let bench_fig5 =
  let comp =
    match Fabric.Component.extract fabric with Ok c -> c | Error e -> failwith e
  in
  let graph = Fabric.Graph.build comp in
  let cong = Router.Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
  let traps = Fabric.Component.traps comp in
  let src = Fabric.Graph.trap_node graph 0 in
  let dst = Fabric.Graph.trap_node graph (Array.length traps - 1) in
  let route turn_cost () =
    match
      Router.Dijkstra.shortest_path graph ~weight:(Router.Congestion.weight cong ~turn_cost) ~src ~dst
    with
    | Some r -> r.Router.Dijkstra.cost
    | None -> failwith "no route"
  in
  Test.make_grouped ~name:"fig5"
    [
      Test.make ~name:"dijkstra_turn_aware" (Staged.stage (route 10.0));
      Test.make ~name:"dijkstra_turn_blind" (Staged.stage (route 0.0));
    ]

(* Figure 2/3 workload: QASM front end round-trip of the [[5,1,3]] program. *)
let bench_fig23 =
  let text = Qasm.Printer.to_string (Circuits.Qecc.c513 ()) in
  Test.make_grouped ~name:"fig23"
    [
      Test.make ~name:"parse_qasm"
        (Staged.stage (fun () ->
             match Qasm.Parser.parse text with Ok p -> Qasm.Program.num_instrs p | Error e -> failwith e));
      Test.make ~name:"dag_and_critical_path"
        (Staged.stage (fun () ->
             Qspr.Baseline.latency Router.Timing.paper (Circuits.Qecc.c513 ())));
    ]

(* PathFinder (reference [3]) vs greedy sequential routing on a wave of six
   simultaneous nets across the 45x85 fabric. *)
let bench_pathfinder =
  let comp =
    match Fabric.Component.extract fabric with Ok c -> c | Error e -> failwith e
  in
  let graph = Fabric.Graph.build comp in
  let traps = Array.length (Fabric.Component.traps comp) in
  let nets =
    List.init 6 (fun i ->
        {
          Router.Pathfinder.net_id = i;
          src = Fabric.Graph.trap_node graph (i * 7);
          dst = Fabric.Graph.trap_node graph (traps - 1 - (i * 11));
        })
  in
  let capacity (_ : Router.Resource.t) = 2 in
  let pathfinder () =
    match Router.Pathfinder.route_all graph ~capacity nets with
    | Ok o -> o.Router.Pathfinder.iterations
    | Error e -> failwith (Router.Pathfinder.string_of_error e)
  in
  let sequential () =
    (* greedy: route nets one by one under live Eq. 2 congestion *)
    let cong = Router.Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
    List.iter
      (fun net ->
        match
          Router.Dijkstra.shortest_path graph
            ~weight:(Router.Congestion.weight cong ~turn_cost:10.0)
            ~src:net.Router.Pathfinder.src ~dst:net.Router.Pathfinder.dst
        with
        | Some r ->
            let p = Router.Path.of_result ~src:net.Router.Pathfinder.src ~dst:net.Router.Pathfinder.dst r in
            Router.Path.iter_resources (Router.Congestion.acquire cong) p
        | None -> failwith "no route")
      nets;
    Router.Congestion.total_in_flight cong
  in
  Test.make_grouped ~name:"pathfinder"
    [
      Test.make ~name:"negotiated_wave6" (Staged.stage pathfinder);
      Test.make ~name:"greedy_sequential_wave6" (Staged.stage sequential);
    ]

(* Allocation-free routing hot path: the same wave of trap-to-trap queries
   with per-call fresh arrays vs one reused workspace.  The reused variant
   should show O(path) minor allocation per query instead of O(nodes); the
   minor_allocated column of BENCH_pr1.json quantifies it. *)
let bench_router_workspace =
  let comp =
    match Fabric.Component.extract fabric with Ok c -> c | Error e -> failwith e
  in
  let graph = Fabric.Graph.build comp in
  let cong = Router.Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
  let w = Router.Congestion.weight cong ~turn_cost:10.0 in
  let ntraps = Array.length (Fabric.Component.traps comp) in
  let queries =
    List.init 8 (fun i ->
        ( Fabric.Graph.trap_node graph (i * 13 mod ntraps),
          Fabric.Graph.trap_node graph (ntraps - 1 - (i * 29 mod ntraps)) ))
  in
  let ws = Router.Workspace.create () in
  let sum_costs shortest =
    List.fold_left
      (fun acc (src, dst) ->
        match shortest ~src ~dst with Some r -> acc +. r.Router.Dijkstra.cost | None -> acc)
      0.0 queries
  in
  Test.make_grouped ~name:"workspace"
    [
      Test.make ~name:"dijkstra_fresh"
        (Staged.stage (fun () -> sum_costs (Router.Dijkstra.shortest_path graph ~weight:w)));
      Test.make ~name:"dijkstra_reused"
        (Staged.stage (fun () ->
             sum_costs (Router.Dijkstra.shortest_path ~workspace:ws graph ~weight:w)));
    ]

(* Placement search fan-out: the same Monte-Carlo and MVFB searches run
   sequentially and on a domain pool.  Results are bit-identical by
   construction (test/test_parallel.ml asserts it); this group measures the
   wall-clock effect of QSPR_JOBS on this machine. *)
let bench_parallel =
  let ctx = ctx_of "[[5,1,3]]" in
  Test.make_grouped ~name:"parallel"
    [
      Test.make ~name:"mc_runs6_jobs1"
        (Staged.stage (fun () -> solution_latency (Qspr.Mapper.map_monte_carlo ~runs:6 ~jobs:1 ctx)));
      Test.make ~name:"mc_runs6_jobs2"
        (Staged.stage (fun () -> solution_latency (Qspr.Mapper.map_monte_carlo ~runs:6 ~jobs:2 ctx)));
      Test.make ~name:"mvfb_m2_jobs1"
        (Staged.stage (fun () -> solution_latency (Qspr.Mapper.map_mvfb ~m:2 ~jobs:1 ctx)));
      Test.make ~name:"mvfb_m2_jobs2"
        (Staged.stage (fun () -> solution_latency (Qspr.Mapper.map_mvfb ~m:2 ~jobs:2 ctx)));
    ]

(* Sensitivity workload: the single forward evaluation that the m-sweep
   repeats. *)
let bench_sensitivity =
  let ctx = ctx_of "[[5,1,3]]" in
  let placement = Placer.Center.place (Qspr.Mapper.component ctx) ~num_qubits:5 in
  Test.make_grouped ~name:"sensitivity"
    [
      Test.make ~name:"forward_evaluation"
        (Staged.stage (fun () -> engine_latency (Qspr.Mapper.run_forward ctx placement)));
    ]

(* One forward schedule-and-route evaluation per benchmark circuit: how the
   mapper's cost scales across Table 2's workloads. *)
let bench_circuits =
  Test.make_grouped ~name:"circuits"
    (List.map
       (fun (name, p) ->
         let ctx =
           match Qspr.Mapper.create ~fabric p with Ok c -> c | Error e -> failwith e
         in
         let placement =
           Placer.Center.place (Qspr.Mapper.component ctx) ~num_qubits:(Qasm.Program.num_qubits p)
         in
         Test.make ~name:(String.map (function ',' -> '_' | c -> c) name)
           (Staged.stage (fun () -> engine_latency (Qspr.Mapper.run_forward ctx placement))))
       (Circuits.Qecc.all ()))

(* Estimator workloads: one fast estimate vs one full schedule-and-route of
   the same placement (their ratio is the per-placement speedup recorded in
   BENCH_pr5.json), model construction, and the pre-screened vs exhaustive
   Monte-Carlo search. *)
let bench_estimator =
  let ctx = ctx_of "[[9,1,3]]" in
  let placement = Placer.Center.place (Qspr.Mapper.component ctx) ~num_qubits:9 in
  let model = Qspr.Mapper.estimator_model ctx in
  Test.make_grouped ~name:"estimator"
    [
      Test.make ~name:"estimate_only"
        (Staged.stage (fun () -> Estimator.Model.estimate model placement));
      Test.make ~name:"full_route"
        (Staged.stage (fun () -> engine_latency (Qspr.Mapper.run_forward ctx placement)));
      Test.make ~name:"model_build"
        (Staged.stage (fun () ->
             Estimator.Model.num_qubits
               (Estimator.Model.create ~graph:(Qspr.Mapper.graph ctx) ~timing:Router.Timing.paper
                  (Qspr.Mapper.dag ctx))));
      Test.make ~name:"mc25_plain"
        (Staged.stage (fun () ->
             solution_latency (Qspr.Mapper.map_monte_carlo ~runs:25 ~prescreen_k:0 ctx)));
      Test.make ~name:"mc25_prescreen5"
        (Staged.stage (fun () ->
             solution_latency (Qspr.Mapper.map_monte_carlo ~runs:25 ~prescreen_k:5 ctx)));
    ]

(* Delta-estimation workloads (PR 6): one transactional swap+undo pair on
   the incremental model vs a from-scratch estimate of the same placement,
   plus the cost of materializing the delta state. *)
let bench_delta =
  let ctx = ctx_of "[[9,1,3]]" in
  let placement = Placer.Center.place (Qspr.Mapper.component ctx) ~num_qubits:9 in
  let model = Qspr.Mapper.estimator_model ctx in
  let delta = Estimator.Delta.create model placement in
  Test.make_grouped ~name:"delta"
    [
      Test.make ~name:"swap_undo"
        (Staged.stage (fun () ->
             ignore (Estimator.Delta.apply_swap delta 0 5);
             Estimator.Delta.undo delta));
      Test.make ~name:"full_estimate"
        (Staged.stage (fun () -> Estimator.Model.estimate model placement));
      Test.make ~name:"state_create"
        (Staged.stage (fun () -> Estimator.Delta.latency (Estimator.Delta.create model placement)));
    ]

(* Portfolio workloads (PR 6): the full five-strategy race at a small
   budget, sequentially and fanned over two domains (bit-identical by
   construction; test/test_delta.ml asserts it). *)
let bench_portfolio =
  let ctx = ctx_of "[[5,1,3]]" in
  Test.make_grouped ~name:"portfolio"
    [
      Test.make ~name:"race_m2_jobs1"
        (Staged.stage (fun () ->
             solution_latency (Qspr.Mapper.map_portfolio ~m:2 ~sa_moves:2000 ~jobs:1 ctx)));
      Test.make ~name:"race_m2_jobs2"
        (Staged.stage (fun () ->
             solution_latency (Qspr.Mapper.map_portfolio ~m:2 ~sa_moves:2000 ~jobs:2 ctx)));
    ]

(* Fault-injection workloads: degrading the 45x85 fabric, one hardened
   (retry-cascade) map of [[5,1,3]] on a degraded fabric, and a small
   survivability campaign on a linear fabric. *)
let bench_faults =
  let lay = Qspr.Experiments.fabric () in
  let comp =
    match Fabric.Component.extract lay with Ok c -> c | Error e -> failwith e
  in
  let faults = Fault.sample ~seed:2012 ~index:0 ~n:10 comp in
  let degraded =
    match Fault.apply lay faults with
    | Ok a -> a.Fault.layout
    | Error e -> failwith e
  in
  let config = Qspr.Config.(default |> with_m 2) in
  let dctx =
    match Qspr.Mapper.create ~fabric:degraded ~config (Circuits.Qecc.c513 ()) with
    | Ok c -> c
    | Error e -> failwith e
  in
  let linear = Fabric.Layout.linear ~traps:8 () in
  let program = Circuits.Qecc.c513 () in
  Test.make_grouped ~name:"faults"
    [
      Test.make ~name:"apply_10_faults"
        (Staged.stage (fun () ->
             match Fault.apply lay faults with
             | Ok a -> List.length a.Fault.faulted_cells
             | Error e -> failwith e));
      Test.make ~name:"map_robust_degraded"
        (Staged.stage (fun () -> solution_latency (Qspr.Mapper.map_robust dctx)));
      Test.make ~name:"campaign_linear_2x2"
        (Staged.stage (fun () ->
             match
               Fault.campaign ~config ~seed:7 ~levels:[ 0; 1 ] ~trials:2 ~fabric:linear program
             with
             | Ok r -> r.Fault.baseline_latency
             | Error e -> failwith e));
    ]

(* Incremental routing (PR 5): the same congested 12-net wave negotiated
   under the dirty-net schedule and the legacy full-reroute schedule, plus
   the engine's event-order routing with and without a warm cross-run route
   cache.  The deterministic search-count reductions are recorded in the
   [router] summary of BENCH_pr5.json; these benches measure the wall-clock
   side of the same change.  Ten crossing nets at the paper's channel
   capacity negotiate for several iterations and converge under both
   schedules. *)
let bench_router =
  let comp =
    match Fabric.Component.extract fabric with Ok c -> c | Error e -> failwith e
  in
  let graph = Fabric.Graph.build comp in
  let traps = Array.length (Fabric.Component.traps comp) in
  let nets =
    List.init 10 (fun i ->
        {
          Router.Pathfinder.net_id = i;
          src = Fabric.Graph.trap_node graph (i * 5 mod traps);
          dst = Fabric.Graph.trap_node graph (traps - 1 - (i * 9 mod traps));
        })
  in
  let capacity (_ : Router.Resource.t) = 2 in
  let route incremental () =
    match Router.Pathfinder.route_all graph ~incremental ~capacity nets with
    | Ok o -> o.Router.Pathfinder.searches
    | Error e -> failwith (Router.Pathfinder.string_of_error e)
  in
  let ctx = ctx_of "[[9,1,3]]" in
  let placement = Placer.Center.place (Qspr.Mapper.component ctx) ~num_qubits:9 in
  let cfg = Qspr.Mapper.config ctx in
  let engine route_cache () =
    match
      Simulator.Engine.run ~graph:(Qspr.Mapper.graph ctx) ~timing:cfg.Qspr.Config.timing
        ~policy:cfg.Qspr.Config.qspr_policy ~dag:(Qspr.Mapper.dag ctx)
        ~priorities:(Qspr.Mapper.qspr_priorities ctx) ~placement ?route_cache ()
    with
    | Ok r -> r.Simulator.Engine.latency
    | Error e -> failwith (Simulator.Engine.string_of_error e)
  in
  let warm = Router.Route_cache.create () in
  Test.make_grouped ~name:"router"
    [
      Test.make ~name:"route_all_incremental_wave10" (Staged.stage (route true));
      Test.make ~name:"route_all_legacy_wave10" (Staged.stage (route false));
      Test.make ~name:"engine_no_cache" (Staged.stage (engine None));
      Test.make ~name:"engine_warm_cache" (Staged.stage (engine (Some warm)));
    ]

(* Quantum-substrate workloads: tableau simulation of the largest benchmark
   and dense state-vector simulation of the smallest. *)
let bench_quantum =
  let big = List.assoc "[[23,1,7]]" (Circuits.Qecc.all ()) in
  let small = Circuits.Qecc.c513 () in
  Test.make_grouped ~name:"quantum"
    [
      Test.make ~name:"stabilizer_23q"
        (Staged.stage (fun () ->
             match Quantum.Stabilizer.run_program big with
             | Ok t -> Quantum.Stabilizer.num_qubits t
             | Error e -> failwith e));
      Test.make ~name:"statevec_5q"
        (Staged.stage (fun () -> Quantum.Statevec.norm (Quantum.Statevec.run_program small)));
      Test.make ~name:"canonical_form_23q"
        (Staged.stage
           (let t = match Quantum.Stabilizer.run_program big with Ok t -> t | Error e -> failwith e in
            fun () -> List.length (Quantum.Stabilizer.canonical_stabilizers t)));
    ]

(* Ablations (DESIGN.md): each disables one QSPR design choice on the
   [[9,1,3]] workload; compare latencies in the printed summary and costs in
   the timing table. *)
let ablation_policies =
  [
    ("full_qspr", Simulator.Engine.qspr_policy);
    ("turn_blind", { Simulator.Engine.qspr_policy with Simulator.Engine.turn_aware = false });
    ("capacity_1", { Simulator.Engine.qspr_policy with Simulator.Engine.channel_capacity = 1 });
    ("dest_pinned", { Simulator.Engine.qspr_policy with Simulator.Engine.routing = Simulator.Engine.Dest_pinned });
    ("single_trap_candidate", { Simulator.Engine.qspr_policy with Simulator.Engine.trap_candidates = 1 });
  ]

let bench_ablation =
  let ctx = ctx_of "[[9,1,3]]" in
  let placement = Placer.Center.place (Qspr.Mapper.component ctx) ~num_qubits:9 in
  let prios = Qspr.Mapper.qspr_priorities ctx in
  Test.make_grouped ~name:"ablation"
    (List.map
       (fun (name, policy) ->
         Test.make ~name
           (Staged.stage (fun () ->
                engine_latency (Qspr.Mapper.run_with ctx ~policy ~priorities:prios ~placement))))
       ablation_policies)

let print_priority_study () =
  print_endline "=== Scheduling-priority ablation ([[9,1,3]]) ===";
  List.iter
    (fun (name, latency) -> Printf.printf "  %-26s %8.1f us\n" name latency)
    (Qspr.Experiments.priority_study ());
  print_newline ()

let print_ablation_latencies () =
  print_endline "=== Ablation latencies ([[9,1,3]], center placement) ===";
  let ctx = ctx_of "[[9,1,3]]" in
  let placement = Placer.Center.place (Qspr.Mapper.component ctx) ~num_qubits:9 in
  let prios = Qspr.Mapper.qspr_priorities ctx in
  List.iter
    (fun (name, policy) ->
      let latency = engine_latency (Qspr.Mapper.run_with ctx ~policy ~priorities:prios ~placement) in
      Printf.printf "  %-22s %8.1f us\n" name latency)
    ablation_policies;
  print_newline ()

(* ------------------------------------------------------------- reporting *)

let run_benchmarks () =
  let tests =
    Test.make_grouped ~name:"qspr"
      [
        bench_table1;
        bench_table2;
        bench_fig4;
        bench_fig5;
        bench_fig23;
        bench_pathfinder;
        bench_router;
        bench_router_workspace;
        bench_parallel;
        bench_sensitivity;
        bench_estimator;
        bench_delta;
        bench_portfolio;
        bench_faults;
        bench_circuits;
        bench_quantum;
        bench_ablation;
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock; minor_allocated ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let estimate_of results name =
    match Hashtbl.find_opt results name with
    | Some ols -> ( match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> nan)
    | None -> nan
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let allocs = Analyze.all ols Instance.minor_allocated raw in
  print_endline "=== Bechamel timings (monotonic clock + minor words, per run) ===";
  let rows =
    Hashtbl.fold (fun name _ acc -> (name, estimate_of times name, estimate_of allocs name) :: acc) times []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns, words) ->
      let pretty =
        if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.2f ns" ns
      in
      Printf.printf "  %-40s %s  %12.0f w\n" name pretty words)
    rows;
  rows

(* The headline estimator numbers for BENCH_pr5.json: per-placement speedup
   (measured full-route ns / estimate ns from the timing rows), the mean
   relative accuracy against the engine, and the pre-screened search's
   evaluation savings. *)
let estimator_summary rows =
  let module J = Ion_util.Json in
  let ns_of suffix =
    match List.find_opt (fun (name, _, _) -> String.ends_with ~suffix name) rows with
    | Some (_, ns, _) -> ns
    | None -> nan
  in
  let est_ns = ns_of "estimator/estimate_only" and route_ns = ns_of "estimator/full_route" in
  let accuracy = Qspr.Experiments.estimator_accuracy () in
  let mean_rel_err =
    List.fold_left (fun acc (_, _, _, rel) -> acc +. Float.abs rel) 0.0 accuracy
    /. float_of_int (List.length accuracy)
  in
  let s = Qspr.Experiments.prescreen_study () in
  Printf.printf "=== Estimator summary ([[9,1,3]]) ===\n";
  Printf.printf "  per-placement speedup : %.0fx (%.1f us route vs %.2f us estimate)\n"
    (route_ns /. est_ns) (route_ns /. 1e3) (est_ns /. 1e3);
  Printf.printf "  mean relative error   : %.1f%% over the Table-1 circuits\n" (100.0 *. mean_rel_err);
  Printf.printf "  prescreen 25->5       : %d vs %d engine evals, %.0f vs %.0f us best latency\n\n"
    s.Qspr.Experiments.prescreened_evals s.Qspr.Experiments.plain_evals
    s.Qspr.Experiments.prescreened_latency s.Qspr.Experiments.plain_latency;
  J.Obj
    [
      ("circuit", J.String "[[9,1,3]]");
      ("estimate_ns_per_placement", J.Float est_ns);
      ("route_ns_per_placement", J.Float route_ns);
      ("per_placement_speedup", J.Float (route_ns /. est_ns));
      ("mean_relative_error", J.Float mean_rel_err);
      ( "accuracy",
        J.List
          (List.map
             (fun (name, est, meas, rel) ->
               J.Obj
                 [
                   ("circuit", J.String name);
                   ("estimated_us", J.Float est);
                   ("measured_us", J.Float meas);
                   ("relative_error", J.Float rel);
                 ])
             accuracy) );
      ( "prescreen",
        J.Obj
          [
            ("runs", J.Int 25);
            ("k", J.Int 5);
            ("plain_engine_evals", J.Int s.Qspr.Experiments.plain_evals);
            ("prescreened_engine_evals", J.Int s.Qspr.Experiments.prescreened_evals);
            ("plain_best_us", J.Float s.Qspr.Experiments.plain_latency);
            ("prescreened_best_us", J.Float s.Qspr.Experiments.prescreened_latency);
          ] );
    ]

(* The headline survivability numbers for BENCH_pr5.json: a full fault
   campaign of [[5,1,3]] on a linear fabric whose single channel row makes
   every blocked segment count. *)
let faults_summary () =
  let config = Qspr.Config.(default |> with_m 2) in
  match
    Fault.campaign ~config ~seed:2012 ~levels:[ 0; 1; 2; 4 ] ~trials:5
      ~fabric:(Fabric.Layout.linear ~traps:8 ())
      (Circuits.Qecc.c513 ())
  with
  | Error e -> failwith e
  | Ok r ->
      Format.printf "=== Fault survivability ([[5,1,3]], linear fabric) ===@.@[<v>%a@]@.@."
        Fault.pp r;
      Fault.to_json r

(* The headline incremental-routing numbers for BENCH_pr5.json: per Table-1
   circuit, the engine's single-net search count without a cache (the legacy
   baseline) versus a warm cross-run cache, with bit-identical latencies in
   both; plus the PathFinder dirty-net schedule's search count against the
   legacy full-reroute schedule on a congested wave.  All counts are
   deterministic — wall-clock lives in the timing rows. *)
let router_summary () =
  let module J = Ion_util.Json in
  Printf.printf "=== Incremental routing summary (center placements) ===\n";
  let engine_rows =
    List.map
      (fun (name, p) ->
        let ctx =
          match Qspr.Mapper.create ~fabric p with Ok c -> c | Error e -> failwith e
        in
        let placement =
          Placer.Center.place (Qspr.Mapper.component ctx) ~num_qubits:(Qasm.Program.num_qubits p)
        in
        let cfg = Qspr.Mapper.config ctx in
        let run route_cache =
          match
            Simulator.Engine.run ~graph:(Qspr.Mapper.graph ctx) ~timing:cfg.Qspr.Config.timing
              ~policy:cfg.Qspr.Config.qspr_policy ~dag:(Qspr.Mapper.dag ctx)
              ~priorities:(Qspr.Mapper.qspr_priorities ctx) ~placement ?route_cache ()
          with
          | Ok r -> r
          | Error e -> failwith (Simulator.Engine.string_of_error e)
        in
        let legacy = run None in
        let cache = Router.Route_cache.create () in
        let _cold = run (Some cache) in
        let warm = run (Some cache) in
        let identical =
          Int64.equal
            (Int64.bits_of_float legacy.Simulator.Engine.latency)
            (Int64.bits_of_float warm.Simulator.Engine.latency)
          && legacy.Simulator.Engine.trace = warm.Simulator.Engine.trace
        in
        if not identical then failwith (name ^ ": cached engine run diverged from uncached");
        if warm.Simulator.Engine.route_searches >= legacy.Simulator.Engine.route_searches then
          failwith (name ^ ": warm cache did not reduce single-net searches");
        Printf.printf "  %-12s searches %4d -> %4d (%d cache hits), latency identical\n" name
          legacy.Simulator.Engine.route_searches warm.Simulator.Engine.route_searches
          warm.Simulator.Engine.route_cache_hits;
        J.Obj
          [
            ("circuit", J.String name);
            ("searches_no_cache", J.Int legacy.Simulator.Engine.route_searches);
            ("searches_warm_cache", J.Int warm.Simulator.Engine.route_searches);
            ("cache_hits", J.Int warm.Simulator.Engine.route_cache_hits);
            ("latency_identical", J.Bool identical);
          ])
      (Circuits.Qecc.all ())
  in
  let comp =
    match Fabric.Component.extract fabric with Ok c -> c | Error e -> failwith e
  in
  let graph = Fabric.Graph.build comp in
  let traps = Array.length (Fabric.Component.traps comp) in
  let nets =
    List.init 10 (fun i ->
        {
          Router.Pathfinder.net_id = i;
          src = Fabric.Graph.trap_node graph (i * 5 mod traps);
          dst = Fabric.Graph.trap_node graph (traps - 1 - (i * 9 mod traps));
        })
  in
  let capacity (_ : Router.Resource.t) = 2 in
  let route incremental =
    match Router.Pathfinder.route_all graph ~incremental ~capacity nets with
    | Ok o -> o
    | Error e -> failwith (Router.Pathfinder.string_of_error e)
  in
  let inc = route true and leg = route false in
  if inc.Router.Pathfinder.overused > 0 || leg.Router.Pathfinder.overused > 0 then
    failwith "router wave10: negotiation did not converge";
  if inc.Router.Pathfinder.searches >= leg.Router.Pathfinder.searches then
    failwith "router wave10: dirty-net schedule did not reduce searches";
  Printf.printf
    "  pathfinder wave10: %d searches incremental vs %d legacy (%d vs %d iterations)\n\n"
    inc.Router.Pathfinder.searches leg.Router.Pathfinder.searches inc.Router.Pathfinder.iterations
    leg.Router.Pathfinder.iterations;
  J.Obj
    [
      ("engine_cache", J.List engine_rows);
      ( "pathfinder_wave10",
        J.Obj
          [
            ("incremental_searches", J.Int inc.Router.Pathfinder.searches);
            ("legacy_searches", J.Int leg.Router.Pathfinder.searches);
            ("incremental_iterations", J.Int inc.Router.Pathfinder.iterations);
            ("legacy_iterations", J.Int leg.Router.Pathfinder.iterations);
            ("incremental_overused", J.Int inc.Router.Pathfinder.overused);
            ("legacy_overused", J.Int leg.Router.Pathfinder.overused);
          ] );
    ]

(* The headline delta-estimation numbers for BENCH_pr6.json: per Table-1
   circuit, the throughput of a greedy delta-SA proposal loop against the
   same loop evaluating every candidate with a from-scratch estimate.  Each
   side is timed over best-of-3 windows so scheduler noise cannot mask the
   structural gap; the acceptance floor (>= 10x on every circuit) is
   enforced here, not just reported.  A search_delta run on [[9,1,3]]
   records the incumbent-latency-vs-move-count curve and how few engine
   routes the million-move loop actually pays for. *)
let delta_summary () =
  let module J = Ion_util.Json in
  Printf.printf "=== Delta estimation summary (greedy proposal loops) ===\n";
  let throughput_rows =
    List.map
      (fun (name, p) ->
        let ctx = ctx_of name in
        let model = Qspr.Mapper.estimator_model ctx in
        let comp = Qspr.Mapper.component ctx in
        let nq = Qasm.Program.num_qubits p in
        let num_traps = Array.length (Fabric.Component.traps comp) in
        let pool = Array.of_list (Placer.Center.center_traps comp (min (3 * nq) num_traps)) in
        let placement = Placer.Center.place comp ~num_qubits:nq in
        (* delta side: the hot path of search_delta — draw, apply with the
           Metropolis cut-off (greedy, so any proven-uphill move stops
           early), commit or undo *)
        let delta_loop moves =
          let rng = Ion_util.Rng.create 2012 in
          let delta = Estimator.Delta.create model placement in
          let tracker = Placer.Annealing.Proposal.create ~num_traps pool placement in
          let cutoff () = 0.0 in
          let t0 = Unix.gettimeofday () in
          for _ = 1 to moves do
            match Placer.Annealing.Proposal.draw tracker rng ~num_qubits:nq with
            | Placer.Annealing.Proposal.Stay -> ()
            | Placer.Annealing.Proposal.Swap (i, j) ->
                if Estimator.Delta.apply_swap ~cutoff delta i j <= 0.0 then Estimator.Delta.commit delta
                else Estimator.Delta.undo delta
            | Placer.Annealing.Proposal.Relocate (q, dst) ->
                let src = Estimator.Delta.trap_of delta q in
                if Estimator.Delta.apply_move ~cutoff delta q dst <= 0.0 then begin
                  Estimator.Delta.commit delta;
                  Placer.Annealing.Proposal.relocate tracker ~src ~dst
                end
                else Estimator.Delta.undo delta
          done;
          float_of_int moves /. Float.max 1e-9 (Unix.gettimeofday () -. t0)
        in
        (* full-estimate side: the identical loop, but every candidate pays
           one from-scratch evaluation (the pre-PR-6 annealer's cost) *)
        let full_loop moves =
          let rng = Ion_util.Rng.create 2012 in
          let tracker = Placer.Annealing.Proposal.create ~num_traps pool placement in
          let current = Array.copy placement in
          let cur = ref (Estimator.Model.estimate model current) in
          let t0 = Unix.gettimeofday () in
          for _ = 1 to moves do
            match Placer.Annealing.Proposal.draw tracker rng ~num_qubits:nq with
            | Placer.Annealing.Proposal.Stay -> ()
            | Placer.Annealing.Proposal.Swap (i, j) ->
                let cand = Array.copy current in
                let tmp = cand.(i) in
                cand.(i) <- cand.(j);
                cand.(j) <- tmp;
                let lat = Estimator.Model.estimate model cand in
                if lat <= !cur then begin
                  Array.blit cand 0 current 0 nq;
                  cur := lat
                end
            | Placer.Annealing.Proposal.Relocate (q, dst) ->
                let cand = Array.copy current in
                let src = cand.(q) in
                cand.(q) <- dst;
                let lat = Estimator.Model.estimate model cand in
                if lat <= !cur then begin
                  Array.blit cand 0 current 0 nq;
                  cur := lat;
                  Placer.Annealing.Proposal.relocate tracker ~src ~dst
                end
          done;
          float_of_int moves /. Float.max 1e-9 (Unix.gettimeofday () -. t0)
        in
        let best_of k f arg =
          let best = ref 0.0 in
          for _ = 1 to k do
            let v = f arg in
            if v > !best then best := v
          done;
          !best
        in
        ignore (delta_loop 2_000);
        let dmps = best_of 3 delta_loop 60_000 in
        ignore (full_loop 200);
        let fmps = best_of 3 full_loop 4_000 in
        let ratio = dmps /. fmps in
        Printf.printf "  %-12s delta %9.0f moves/s vs full-SA %8.0f evals/s — %.1fx\n" name dmps
          fmps ratio;
        if ratio < 10.0 then
          failwith
            (Printf.sprintf "%s: delta-SA only %.1fx faster than full-estimate SA (need >= 10x)"
               name ratio);
        J.Obj
          [
            ("circuit", J.String name);
            ("delta_moves_per_s", J.Float dmps);
            ("full_estimate_evals_per_s", J.Float fmps);
            ("speedup", J.Float ratio);
          ])
      (Circuits.Qecc.all ())
  in
  let ctx = ctx_of "[[9,1,3]]" in
  let comp = Qspr.Mapper.component ctx in
  let model = Qspr.Mapper.estimator_model ctx in
  let curve_outcome =
    match
      Placer.Annealing.search_delta
        ~rng:(Ion_util.Rng.create 2012)
        ~moves:20_000 ~model
        ~evaluate:(Qspr.Mapper.run_forward ctx)
        comp ~num_qubits:9
    with
    | Ok o -> o
    | Error e -> failwith (Simulator.Engine.string_of_error e)
  in
  Printf.printf
    "  [[9,1,3]] search_delta: %d moves, %d accepted, %d engine routes, best %.1f us (estimate %.1f us, drift %.1e)\n\n"
    curve_outcome.Placer.Annealing.moves curve_outcome.Placer.Annealing.accepted
    curve_outcome.Placer.Annealing.engine_evals
    curve_outcome.Placer.Annealing.result.Simulator.Engine.latency
    curve_outcome.Placer.Annealing.best_estimate curve_outcome.Placer.Annealing.max_drift;
  J.Obj
    [
      ("throughput", J.List throughput_rows);
      ( "incumbent_curve",
        J.Obj
          [
            ("circuit", J.String "[[9,1,3]]");
            ("moves", J.Int curve_outcome.Placer.Annealing.moves);
            ("accepted", J.Int curve_outcome.Placer.Annealing.accepted);
            ("engine_routes", J.Int curve_outcome.Placer.Annealing.engine_evals);
            ("best_routed_us", J.Float curve_outcome.Placer.Annealing.result.Simulator.Engine.latency);
            ("best_estimate_us", J.Float curve_outcome.Placer.Annealing.best_estimate);
            ("max_drift", J.Float curve_outcome.Placer.Annealing.max_drift);
            ( "curve",
              J.List
                (List.map
                   (fun (move, est) -> J.Obj [ ("move", J.Int move); ("estimate_us", J.Float est) ])
                   curve_outcome.Placer.Annealing.curve) );
          ] );
    ]

(* The headline portfolio numbers for BENCH_pr6.json: per Table-1 circuit
   the five-strategy race at a matched budget never loses to the classic
   routed anneal (enforced, not just reported), with the winner and every
   strategy's outcome recorded. *)
let portfolio_summary () =
  let module J = Ion_util.Json in
  Printf.printf "=== Portfolio race summary (m=3, sa_moves=4000) ===\n";
  let rows =
    List.map
      (fun (name, _) ->
        let ctx = ctx_of name in
        let anneal = solution_latency (Qspr.Mapper.map_annealing ~evaluations:3 ctx) in
        let s =
          match Qspr.Mapper.map_portfolio ~m:3 ~sa_moves:4_000 ctx with
          | Ok s -> s
          | Error e -> failwith (name ^ ": " ^ Qspr.Mapper.error_to_string e)
        in
        if s.Qspr.Mapper.latency > anneal then
          failwith
            (Printf.sprintf "%s: portfolio %.1f us lost to the classic anneal %.1f us" name
               s.Qspr.Mapper.latency anneal);
        let winner =
          match
            List.find_opt
              (fun (a : Qspr.Mapper.attempt) ->
                match a.Qspr.Mapper.outcome with
                | Ok l -> l = s.Qspr.Mapper.latency
                | Error _ -> false)
              s.Qspr.Mapper.attempts
          with
          | Some a -> a.Qspr.Mapper.stage
          | None -> "?"
        in
        Printf.printf "  %-12s %8.1f us (winner %-20s)  anneal %8.1f us\n" name
          s.Qspr.Mapper.latency winner anneal;
        J.Obj
          [
            ("circuit", J.String name);
            ("portfolio_us", J.Float s.Qspr.Mapper.latency);
            ("classic_anneal_us", J.Float anneal);
            ("winner", J.String winner);
            ( "strategies",
              J.List
                (List.map
                   (fun (a : Qspr.Mapper.attempt) ->
                     J.Obj
                       [
                         ("stage", J.String a.Qspr.Mapper.stage);
                         ( "outcome",
                           match a.Qspr.Mapper.outcome with
                           | Ok l -> J.Float l
                           | Error e -> J.String (Qspr.Mapper.error_to_string e) );
                       ])
                   s.Qspr.Mapper.attempts) );
          ])
      (Circuits.Qecc.all ())
  in
  print_newline ();
  J.List rows

(* The headline service numbers for BENCH_pr7.json: the six Table-1
   circuits submitted as one `qspr serve` batch against the shared fabric.
   Three contracts are enforced here, not just reported: (1) every batch
   response is bit-identical to an independent Mapper run under the same
   seed and budget (same latency bits, same certificate digest); (2) the
   shared warm caches make the batch do strictly fewer route searches and
   lower-bound builds than six cold single-job services; (3) the batch's
   deterministic response encodings are byte-identical at jobs=1/2/4, and
   the warm batch is not slower than the cold services (1.15x slack for
   scheduler noise on loaded machines).  Reported: circuits/sec at each
   width, p50/p99 per-job CPU, aggregate cache hit rate, and the group's
   GC footprint as full [Gc.stat] deltas (words promoted to the major
   heap and major collections across every batch, plus peak heap). *)
let throughput_summary () =
  let module J = Ion_util.Json in
  let module P = Service.Protocol in
  let module S = Service.Scheduler in
  Printf.printf "=== Service throughput (Table-1 batch, mvfb m=2) ===\n";
  let gs0 = Gc.stat () in
  let jobs =
    List.mapi
      (fun i (name, _) ->
        P.make_job ~seed:(2012 + i) ~placer:"mvfb" ~m:2 ~id:name (P.Builtin name))
      (Circuits.Qecc.all ())
  in
  let n = List.length jobs in
  let batch_at width =
    let t = S.create ~limits:{ S.default_limits with S.jobs = width } () in
    let t0 = Unix.gettimeofday () in
    let responses = S.run_batch t jobs in
    (responses, Unix.gettimeofday () -. t0)
  in
  let warm, warm_s = batch_at 1 in
  let widths =
    List.map
      (fun width ->
        let responses, elapsed = batch_at width in
        List.iter2
          (fun a b ->
            if
              not
                (String.equal
                   (P.response_to_line ~deterministic:true a)
                   (P.response_to_line ~deterministic:true b))
            then failwith (Printf.sprintf "service: jobs=%d diverged from jobs=1 on %s" width a.P.job_id))
          warm responses;
        (width, elapsed))
      [ 1; 2; 4 ]
  in
  (* six cold single-job services: every job pays its own distance tables
     and route searches *)
  let cold_t0 = Unix.gettimeofday () in
  let cold = List.map (fun j -> S.create () |> fun t -> S.submit t j) jobs in
  let cold_s = Unix.gettimeofday () -. cold_t0 in
  let completed_or_die label (r : P.response) =
    match r.P.verdict with
    | P.Completed { latency_us; certificate_digest; certificate_valid; _ } ->
        (latency_us, certificate_digest, certificate_valid)
    | _ -> failwith (Printf.sprintf "service: %s %s did not complete" label r.P.job_id)
  in
  let searches responses =
    List.fold_left
      (fun acc (r : P.response) ->
        match r.P.cache with
        | Some c -> acc + c.P.misses + c.P.bound_builds
        | None -> failwith "service: cache counters missing")
      0 responses
  in
  let hit_rate responses =
    let hits, lookups =
      List.fold_left
        (fun (h, l) (r : P.response) ->
          match r.P.cache with Some c -> (h + c.P.hits, l + c.P.hits + c.P.misses) | None -> (h, l))
        (0, 0) responses
    in
    float_of_int hits /. float_of_int (max 1 lookups)
  in
  (* contract 1: each batch response = an independent Mapper run, bit for bit *)
  let independent =
    List.map
      (fun (j : P.job) ->
        let program = List.assoc j.P.id (Circuits.Qecc.all ()) in
        let config =
          Qspr.Config.(
            default |> with_jobs 1 |> with_seed j.P.seed
            |> with_m (match j.P.m with Some m -> m | None -> default.m)
            |> with_budget no_budget)
        in
        let ctx =
          match Qspr.Mapper.create ~fabric ~config program with
          | Ok c -> c
          | Error e -> failwith e
        in
        let sol =
          match Qspr.Mapper.map_mvfb ~jobs:1 ctx with
          | Ok s -> s
          | Error e -> failwith (Qspr.Mapper.error_to_string e)
        in
        (j.P.id, sol.Qspr.Mapper.latency, (Analysis.Certify.of_solution ctx sol).Analysis.Certify.digest))
      jobs
  in
  List.iter2
    (fun (r : P.response) (name, latency, digest) ->
      let batch_latency, batch_digest, batch_valid = completed_or_die "batch" r in
      if not (Int64.equal (Int64.bits_of_float batch_latency) (Int64.bits_of_float latency)) then
        failwith
          (Printf.sprintf "service: %s batch latency %.9g diverged from independent run %.9g" name
             batch_latency latency);
      if not (Int64.equal batch_digest digest) then
        failwith (Printf.sprintf "service: %s certificate digest diverged from independent run" name);
      if not batch_valid then failwith (Printf.sprintf "service: %s did not certify" name))
    warm independent;
  (* contract 2: shared warm caches do strictly less search work than cold *)
  let warm_searches = searches warm and cold_searches = searches cold in
  if warm_searches >= cold_searches then
    failwith
      (Printf.sprintf "service: warm batch ran %d searches, cold services %d (want strictly fewer)"
         warm_searches cold_searches);
  (* contract 3: amortized batch is not slower than cold end to end *)
  if warm_s > cold_s *. 1.15 then
    failwith
      (Printf.sprintf "service: warm batch %.2fs slower than cold services %.2fs" warm_s cold_s);
  let cpu = List.sort compare (List.map (fun (r : P.response) -> r.P.cpu_s) warm) in
  let pct p =
    List.nth cpu (min (n - 1) (int_of_float (Float.of_int (n - 1) *. p /. 100.0 +. 0.5)))
  in
  (* full Gc.stat deltas over every batch in the group: quick_stat's
     top_heap_words alone said nothing about GC pressure — promoted words
     and major collections are what the arena refactor actually moves *)
  let gs1 = Gc.stat () in
  let promoted_words = gs1.Gc.promoted_words -. gs0.Gc.promoted_words in
  let major_collections = gs1.Gc.major_collections - gs0.Gc.major_collections in
  let heap_bytes = gs1.Gc.top_heap_words * (Sys.word_size / 8) in
  List.iter
    (fun (width, elapsed) ->
      Printf.printf "  jobs=%d  %5.2f s  %5.2f circuits/s\n" width elapsed
        (float_of_int n /. elapsed))
    widths;
  Printf.printf "  cold    %5.2f s  %5.2f circuits/s (6 single-job services)\n" cold_s
    (float_of_int n /. cold_s);
  Printf.printf
    "  searches %d warm vs %d cold, hit rate %.1f%% warm vs %.1f%% cold, cpu p50 %.0f ms p99 %.0f \
     ms\n  gc: %.1f MB promoted, %d major collections, peak heap %.1f MB\n\n"
    warm_searches cold_searches
    (100.0 *. hit_rate warm)
    (100.0 *. hit_rate cold)
    (1000.0 *. pct 50.0) (1000.0 *. pct 99.0)
    (promoted_words *. float_of_int (Sys.word_size / 8) /. 1e6)
    major_collections
    (float_of_int heap_bytes /. 1e6);
  J.Obj
    [
      ("circuits", J.Int n);
      ("placer", J.String "mvfb");
      ( "throughput",
        J.List
          (List.map
             (fun (width, elapsed) ->
               J.Obj
                 [
                   ("jobs", J.Int width);
                   ("elapsed_s", J.Float elapsed);
                   ("circuits_per_s", J.Float (float_of_int n /. elapsed));
                 ])
             widths) );
      ( "cold",
        J.Obj
          [
            ("elapsed_s", J.Float cold_s);
            ("circuits_per_s", J.Float (float_of_int n /. cold_s));
            ("searches", J.Int cold_searches);
            ("hit_rate", J.Float (hit_rate cold));
          ] );
      ("warm_searches", J.Int warm_searches);
      ("warm_hit_rate", J.Float (hit_rate warm));
      ("cpu_p50_s", J.Float (pct 50.0));
      ("cpu_p99_s", J.Float (pct 99.0));
      ("promoted_words", J.Float promoted_words);
      ("major_collections", J.Int major_collections);
      ("peak_heap_bytes", J.Int heap_bytes);
      ("bit_identical_to_independent_runs", J.Bool true);
      ("bit_identical_across_widths", J.Bool true);
    ]

(* The headline optimality-gap numbers for BENCH_pr10.json: per Table-1
   circuit the achieved MVFB latency, the certified admissible lower bound
   the solution carries ({!Estimator.Bound}) and the resulting relative gap
   — the solution-quality column next to the speed columns. *)
let gaps_summary () =
  let module J = Ion_util.Json in
  J.List
    (List.map
       (fun (circuit, latency, lb, kind, gap) ->
         J.Obj
           [
             ("circuit", J.String circuit);
             ("latency_us", J.Float latency);
             ("lower_bound_us", J.Float lb);
             ("bound_kind", J.String (Estimator.Bound.kind_to_string kind));
             ("optimality_gap", J.Float gap);
           ])
       (Qspr.Experiments.gaps_study ~m:3 ()))

(* Allocation accounting for the flat-arena memory architecture (PR 10):
   per-circuit warm forward evaluations bracketed by full [Gc.stat]
   deltas.  [Gc.minor_words] reads the allocation pointer directly, so
   the per-evaluation minor-word figure is exact on this domain;
   [Gc.stat]'s counters add words promoted to the major heap and major
   collections triggered.  OCaml exposes no GC pause times, so the pause
   column is a measured proxy: the wall-clock cost of a forced
   [Gc.minor] + [Gc.full_major] right after the workload, an upper bound
   on any single pause the workload itself could have seen.  When
   BENCH_pr8.json (emitted by the pre-arena harness) is in the working
   directory, each circuit's reduction ratio against its
   minor_words_per_run row is computed, and the two circuits bench-smoke
   guards must show the >=5x the arena refactor claims. *)
let memory_summary () =
  let module J = Ion_util.Json in
  Printf.printf "=== Memory (warm forward evaluation, Gc.stat deltas) ===\n";
  let baseline =
    if not (Sys.file_exists "BENCH_pr8.json") then None
    else
      let ic = open_in_bin "BENCH_pr8.json" in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match J.parse s with
      | Error _ -> None
      | Ok doc -> (
          match J.member "results" doc with
          | Some (J.List rows) ->
              Some
                (List.filter_map
                   (fun row ->
                     match (J.member "name" row, J.member "minor_words_per_run" row) with
                     | Some (J.String n), Some (J.Float w) -> Some (n, w)
                     | Some (J.String n), Some (J.Int w) -> Some (n, float_of_int w)
                     | _ -> None)
                   rows)
          | _ -> None)
  in
  let baseline_for name =
    (* bechamel row names mangle the commas in circuit names *)
    match baseline with
    | None -> None
    | Some rows ->
        List.assoc_opt ("qspr/circuits/" ^ String.map (function ',' -> '_' | c -> c) name) rows
  in
  let reps = 8 in
  let circuits =
    List.map
      (fun (name, p) ->
        let ctx =
          match Qspr.Mapper.create ~fabric p with Ok c -> c | Error e -> failwith e
        in
        let placement =
          Placer.Center.place (Qspr.Mapper.component ctx)
            ~num_qubits:(Qasm.Program.num_qubits p)
        in
        let eval () =
          match Qspr.Mapper.run_forward ctx placement with
          | Ok r -> ignore r.Simulator.Engine.latency
          | Error e -> failwith (Simulator.Engine.string_of_error e)
        in
        (* two warm-ups: route cache filled, arenas grown to steady size *)
        eval ();
        eval ();
        let s0 = Gc.stat () in
        let w0 = Gc.minor_words () in
        for _ = 1 to reps do
          eval ()
        done;
        let w1 = Gc.minor_words () in
        let s1 = Gc.stat () in
        let minor = (w1 -. w0) /. float_of_int reps in
        let promoted = (s1.Gc.promoted_words -. s0.Gc.promoted_words) /. float_of_int reps in
        let majors = s1.Gc.major_collections - s0.Gc.major_collections in
        let t0 = Unix.gettimeofday () in
        Gc.minor ();
        Gc.full_major ();
        let pause = Unix.gettimeofday () -. t0 in
        let base = baseline_for name in
        let ratio = match base with Some b -> Some (b /. minor) | None -> None in
        (match ratio with
        | Some r
          when r < 5.0 && (String.equal name "[[5,1,3]]" || String.equal name "[[7,1,3]]") ->
            failwith
              (Printf.sprintf
                 "memory: %s warm eval allocates %.0f minor words — only %.2fx below the \
                  pre-arena baseline (want >=5x)"
                 name minor r)
        | _ -> ());
        Printf.printf
          "  %-12s %7.0f minor words/eval  %6.0f promoted  %d major gcs  full major %.2f ms%s\n"
          name minor promoted majors (1000.0 *. pause)
          (match ratio with Some r -> Printf.sprintf "  (%.1fx vs pr8)" r | None -> "");
        J.Obj
          [
            ("circuit", J.String name);
            ("minor_words_per_eval", J.Float minor);
            ("promoted_words_per_eval", J.Float promoted);
            ("major_collections", J.Int majors);
            ("forced_full_major_s", J.Float pause);
            ( "baseline_minor_words_per_eval",
              match base with Some b -> J.Float b | None -> J.Null );
            ("minor_words_reduction_vs_pr8", match ratio with Some r -> J.Float r | None -> J.Null);
          ])
      (Circuits.Qecc.all ())
  in
  print_newline ();
  J.Obj
    [
      ( "method",
        J.String
          "Gc.minor_words + full Gc.stat deltas over 8 warm run_forward reps after 2 warm-ups" );
      ("baseline", match baseline with Some _ -> J.String "BENCH_pr8.json" | None -> J.Null);
      ("circuits", J.List circuits);
    ]

(* Machine-readable results for regression tracking: one record per bench
   with the OLS ns/run and minor words/run estimates, plus the estimator,
   fault-injection and incremental-routing subsystems' headline numbers. *)
let emit_json rows =
  let module J = Ion_util.Json in
  let doc =
    J.Obj
      [
        ("schema", J.String "qspr-bench/8");
        ( "instances",
          J.List [ J.String "monotonic_clock_ns_per_run"; J.String "minor_allocated_words_per_run" ] );
        ("estimator", estimator_summary rows);
        ("delta", delta_summary ());
        ("portfolio", portfolio_summary ());
        ("service", throughput_summary ());
        ("gaps", gaps_summary ());
        ("memory", memory_summary ());
        ("faults", faults_summary ());
        ("router", router_summary ());
        ( "results",
          J.List
            (List.map
               (fun (name, ns, words) ->
                 J.Obj
                   [ ("name", J.String name); ("ns_per_run", J.Float ns); ("minor_words_per_run", J.Float words) ])
               rows) );
      ]
  in
  let oc = open_out "BENCH_pr10.json" in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote BENCH_pr10.json (%d benches)\n" (List.length rows)

let () =
  print_tables ();
  print_priority_study ();
  print_ablation_latencies ();
  emit_json (run_benchmarks ())
