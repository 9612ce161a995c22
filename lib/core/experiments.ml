module Coord = Ion_util.Coord

let fabric () = Fabric.Layout.quale_45x85 ()

let context ?config program =
  match Mapper.create ~fabric:(fabric ()) ?config program with
  | Ok ctx -> ctx
  | Error e -> failwith ("Experiments.context: " ^ e)

let default_circuits () = Circuits.Qecc.all ()

let solve_exn label = function
  | Ok (s : Mapper.solution) -> s
  | Error e ->
      failwith (Printf.sprintf "Experiments: %s failed: %s" label (Mapper.error_to_string e))

(* [m] is MVFB's seed count or Monte-Carlo's run count *)
let map_exn ~m strategy label ctx =
  solve_exn label (Mapper.map strategy (Mapper.with_search (Config.with_m m) ctx))

let cell_of (s : Mapper.solution) =
  { Report.latency = s.Mapper.latency; cpu_ms = s.Mapper.cpu_time_s *. 1000.0; runs = s.Mapper.placement_runs }

(* one circuit, one seed count: MVFB then MC at the same run budget *)
let placer_pair ctx ~m =
  let mvfb = map_exn ~m Mvfb "MVFB" ctx in
  let mc = map_exn ~m:mvfb.Mapper.placement_runs Monte_carlo "MC" ctx in
  (cell_of mvfb, cell_of mc)

let table1 ?(m_small = 25) ?(m_large = 100) ?(jobs = 1) ?circuits () =
  let circuits = match circuits with Some c -> c | None -> default_circuits () in
  (* The sweep parallelizes across circuits; each circuit's searches run
     sequentially ([Config.default]'s one job), so there is no nested
     fan-out, and every search is bit-identical at any job count. *)
  let one (name, p) =
    let ctx = context p in
    let mvfb_25, mc_25 = placer_pair ctx ~m:m_small in
    let mvfb_100, mc_100 = placer_pair ctx ~m:m_large in
    { Report.circuit = name; mvfb_25; mc_25; mvfb_100; mc_100 }
  in
  Ion_util.Domain_pool.with_pool ~jobs (fun pool ->
      Ion_util.Domain_pool.map pool one (Array.of_list circuits))
  |> Array.to_list

let table2 ?(m = 100) ?circuits () =
  let circuits = match circuits with Some c -> c | None -> default_circuits () in
  List.map
    (fun (name, p) ->
      let ctx = context p in
      let baseline = Mapper.ideal_latency ctx in
      let quale = solve_exn "QUALE" (Mapper.map Quale ctx) in
      let qspr = map_exn ~m Mvfb "QSPR" ctx in
      { Report.circuit = name; baseline; quale = quale.Mapper.latency; qspr = qspr.Mapper.latency })
    circuits

let table2_with_paper rows =
  let header =
    [
      "Circuit";
      "Baseline";
      "QUALE (ours)";
      "QUALE (paper)";
      "QSPR (ours)";
      "QSPR (paper)";
      "Impr% (ours)";
      "Impr% (paper)";
    ]
  in
  let cells =
    List.map
      (fun (r : Report.table2_row) ->
        let paper v = match v with Some x -> Report.us x | None -> "?" in
        let paper_q = Circuits.Qecc.paper_quale_latency_us r.Report.circuit in
        let paper_s = Circuits.Qecc.paper_qspr_latency_us r.Report.circuit in
        let paper_impr =
          match (paper_q, paper_s) with
          | Some q, Some s -> Printf.sprintf "%.1f" (Report.improvement_pct ~quale:q ~qspr:s)
          | _ -> "?"
        in
        [
          r.Report.circuit;
          Report.us r.Report.baseline;
          Report.us r.Report.quale;
          paper paper_q;
          Report.us r.Report.qspr;
          paper paper_s;
          Printf.sprintf "%.1f" (Report.improvement_pct ~quale:r.Report.quale ~qspr:r.Report.qspr);
          paper_impr;
        ])
      rows
  in
  Ion_util.Ascii_table.render_simple ~header ~rows:cells

let sensitivity ?(ms = [ 1; 5; 10; 25; 50; 100 ]) ?(circuit = "[[9,1,3]]") () =
  let p =
    match List.assoc_opt circuit (default_circuits ()) with
    | Some p -> p
    | None -> failwith ("Experiments.sensitivity: unknown circuit " ^ circuit)
  in
  let ctx = context p in
  List.map
    (fun m ->
      let mvfb = map_exn ~m Mvfb "MVFB" ctx in
      let mc = map_exn ~m:mvfb.Mapper.placement_runs Monte_carlo "MC" ctx in
      (m, mvfb.Mapper.latency, mvfb.Mapper.placement_runs, mc.Mapper.latency))
    ms

let congestion_maps ?(circuit = "[[19,1,7]]") () =
  let p =
    match List.assoc_opt circuit (default_circuits ()) with
    | Some p -> p
    | None -> failwith ("Experiments.congestion_maps: unknown circuit " ^ circuit)
  in
  let ctx = context p in
  let comp = Mapper.component ctx in
  let qspr = map_exn ~m:3 Mvfb "QSPR" ctx in
  let quale = solve_exn "QUALE" (Mapper.map Quale ctx) in
  ( Simulator.Heatmap.render comp qspr.Mapper.trace,
    Simulator.Heatmap.render comp quale.Mapper.trace )

let scaling_study ?(cases = [ (5, 30); (10, 60); (15, 120); (20, 200) ]) () =
  List.map
    (fun (nq, gates) ->
      let rng = Ion_util.Rng.create (1000 + nq) in
      let p = Circuits.Library.random_clifford rng ~num_qubits:nq ~gates in
      let ctx = context p in
      let t0 = Sys.time () in
      let sol = map_exn ~m:3 Mvfb "MVFB" ctx in
      (nq, gates, sol.Mapper.latency, Sys.time () -. t0))
    cases

let placer_comparison ?(circuit = "[[9,1,3]]") () =
  let p =
    match List.assoc_opt circuit (default_circuits ()) with
    | Some p -> p
    | None -> failwith ("Experiments.placer_comparison: unknown circuit " ^ circuit)
  in
  let ctx = context p in
  let comp = Mapper.component ctx in
  let nq = Qasm.Program.num_qubits p in
  let evaluate = Mapper.run_forward ctx in
  let engine_of label = function
    | Ok (r : Simulator.Engine.result) -> r.Simulator.Engine.latency
    | Error e ->
        failwith
          ("Experiments.placer_comparison: " ^ label ^ ": " ^ Simulator.Engine.string_of_error e)
  in
  let mvfb = map_exn ~m:5 Mvfb "MVFB" ctx in
  let budget = mvfb.Mapper.placement_runs in
  let mc = map_exn ~m:budget Monte_carlo "MC" ctx in
  let sa =
    match
      Placer.Annealing.search
        ~rng:(Ion_util.Rng.create (Mapper.config ctx).Config.rng_seed)
        ~evaluations:budget ~evaluate comp ~num_qubits:nq
    with
    | Ok o -> o
    | Error e ->
        failwith ("Experiments.placer_comparison: annealing: " ^ Simulator.Engine.string_of_error e)
  in
  let center = engine_of "center" (evaluate (Placer.Center.place comp ~num_qubits:nq)) in
  let conn = engine_of "connectivity" (evaluate (Placer.Connectivity.place comp p)) in
  [
    ("center (QUALE-style)", center, 1);
    ("connectivity-greedy", conn, 1);
    ("monte-carlo", mc.Mapper.latency, budget);
    ("simulated annealing", sa.Placer.Search.result.Simulator.Engine.latency, sa.Placer.Search.evaluations);
    ("MVFB (m=5)", mvfb.Mapper.latency, budget);
  ]

let estimator_accuracy ?circuits () =
  let circuits = match circuits with Some c -> c | None -> default_circuits () in
  List.map
    (fun (name, p) ->
      let ctx = context p in
      let placement =
        Placer.Center.place (Mapper.component ctx) ~num_qubits:(Qasm.Program.num_qubits p)
      in
      let estimated = Mapper.estimate ctx placement in
      let measured =
        match Mapper.run_forward ctx placement with
        | Ok r -> r.Simulator.Engine.latency
        | Error e -> failwith ("Experiments.estimator_accuracy: " ^ Simulator.Engine.string_of_error e)
      in
      (name, estimated, measured, Float.abs (estimated -. measured) /. measured))
    circuits

type prescreen_stats = {
  plain_latency : float;
  plain_evals : int;
  prescreened_latency : float;
  prescreened_evals : int;
}

let prescreen_study ?(circuit = "[[9,1,3]]") ?(runs = 25) ?(k = 5) () =
  let p =
    match List.assoc_opt circuit (default_circuits ()) with
    | Some p -> p
    | None -> failwith ("Experiments.prescreen_study: unknown circuit " ^ circuit)
  in
  let ctx = context p in
  let mc label prescreen_k =
    solve_exn label
      (Mapper.map Monte_carlo
         (Mapper.with_search (fun c -> Config.(c |> with_m runs |> with_prescreen prescreen_k)) ctx))
  in
  let plain = mc "MC" None and pre = mc "MC+prescreen" (Some k) in
  {
    plain_latency = plain.Mapper.latency;
    plain_evals = plain.Mapper.engine_evals;
    prescreened_latency = pre.Mapper.latency;
    prescreened_evals = pre.Mapper.engine_evals;
  }

let fabric_study ?(circuit = "[[9,1,3]]") () =
  let p =
    match List.assoc_opt circuit (default_circuits ()) with
    | Some p -> p
    | None -> failwith ("Experiments.fabric_study: unknown circuit " ^ circuit)
  in
  let solve ?config lay =
    match Mapper.create ~fabric:lay ?config p with
    | Error e -> failwith ("Experiments.fabric_study: " ^ e)
    | Ok ctx -> (map_exn ~m:5 Mvfb "MVFB" ctx).Mapper.latency
  in
  let geometry =
    List.map
      (fun (pitch, tpc) ->
        let lay =
          Fabric.Layout.make_grid ~width:85 ~height:45 ~pitch_x:pitch ~pitch_y:7 ~margin:2
            ~traps_per_channel:tpc ()
        in
        (Printf.sprintf "pitch %2d, %d trap(s)/channel, capacity 2" pitch tpc, solve lay))
      [ (6, 1); (8, 1); (12, 1); (8, 2) ]
  in
  let capacity =
    List.map
      (fun cap ->
        let config =
          {
            Config.default with
            Config.qspr_policy =
              { Config.default.Config.qspr_policy with Simulator.Engine.channel_capacity = cap };
          }
        in
        (Printf.sprintf "pitch  8, 1 trap(s)/channel, capacity %d" cap, solve ~config (fabric ())))
      [ 1; 4 ]
  in
  let linear =
    let lay = Fabric.Layout.linear ~traps:(2 * Qasm.Program.num_qubits p) () in
    [ ("linear QCCD (single channel), capacity 2", solve lay) ]
  in
  geometry @ capacity @ linear

let optimality_study ?(circuit = "[[5,1,3]]") ?(candidate_traps = 6) () =
  let p =
    match List.assoc_opt circuit (default_circuits ()) with
    | Some p -> p
    | None -> failwith ("Experiments.optimality_study: unknown circuit " ^ circuit)
  in
  let ctx = context p in
  let nq = Qasm.Program.num_qubits p in
  let exhaustive =
    match
      Placer.Exhaustive.search ~candidate_traps ~evaluate:(Mapper.run_forward ctx) (Mapper.component ctx)
        ~num_qubits:nq
    with
    | Ok o -> o
    | Error e -> failwith ("Experiments.optimality_study: " ^ Simulator.Engine.string_of_error e)
  in
  let center = solve_exn "center" (Mapper.map Center ctx) in
  let mvfb = map_exn ~m:10 Mvfb "MVFB" ctx in
  let mc = map_exn ~m:mvfb.Mapper.placement_runs Monte_carlo "MC" ctx in
  [
    ("ideal baseline", Mapper.ideal_latency ctx);
    ( Printf.sprintf "exhaustive optimum (%d placements)" exhaustive.Placer.Exhaustive.evaluated,
      exhaustive.Placer.Exhaustive.result.Simulator.Engine.latency );
    ("MVFB (m=10)", mvfb.Mapper.latency);
    ("Monte-Carlo (equal runs)", mc.Mapper.latency);
    ("center placement", center.Mapper.latency);
    ("worst candidate placement", exhaustive.Placer.Exhaustive.worst_latency);
  ]

let noise_study ?(m = 10) ?circuits () =
  let circuits = match circuits with Some c -> c | None -> default_circuits () in
  let model = Noise.Model.default in
  List.map
    (fun (name, p) ->
      let ctx = context p in
      let nq = Qasm.Program.num_qubits p in
      let qspr = map_exn ~m Mvfb "QSPR" ctx in
      let quale = solve_exn "QUALE" (Mapper.map Quale ctx) in
      ( name,
        Noise.Estimate.of_trace model ~num_qubits:nq qspr.Mapper.trace,
        Noise.Estimate.of_trace model ~num_qubits:nq quale.Mapper.trace ))
    circuits

let empirical_noise ?(circuit = "[[9,1,3]]") ?(trials = 300) () =
  let p =
    match List.assoc_opt circuit (default_circuits ()) with
    | Some p -> p
    | None -> failwith ("Experiments.empirical_noise: unknown circuit " ^ circuit)
  in
  let ctx = context p in
  let nq = Qasm.Program.num_qubits p in
  (* transport-heavy model so mapping quality matters *)
  let model = Noise.Model.make ~eps_move:0.004 ~eps_turn:0.02 ~t2_us:20_000.0 () in
  let qspr = map_exn ~m:5 Mvfb "QSPR" ctx in
  let quale = solve_exn "QUALE" (Mapper.map Quale ctx) in
  List.map
    (fun (label, (sol : Mapper.solution)) ->
      let analytic = Noise.Estimate.of_trace model ~num_qubits:nq sol.Mapper.trace in
      let measured =
        match
          Noise.Montecarlo.simulate ~rng:(Ion_util.Rng.create 11) ~model ~program:p
            ~trace:sol.Mapper.trace ~trials ()
        with
        | Ok s -> 1.0 -. s.Noise.Montecarlo.failure_rate
        | Error e -> failwith ("Experiments.empirical_noise: " ^ e)
      in
      (label, sol.Mapper.latency, analytic, measured))
    [ ("QSPR", qspr); ("QUALE", quale) ]

let objective_study ?(circuit = "[[9,1,3]]") ?(samples = 40) () =
  let p =
    match List.assoc_opt circuit (default_circuits ()) with
    | Some p -> p
    | None -> failwith ("Experiments.objective_study: unknown circuit " ^ circuit)
  in
  let ctx = context p in
  let nq = Qasm.Program.num_qubits p in
  let model = Noise.Model.make ~eps_move:0.002 ~eps_turn:0.01 ~t2_us:50_000.0 () in
  let rng = Ion_util.Rng.create (Mapper.config ctx).Config.rng_seed in
  let evaluated =
    List.init samples (fun _ ->
        let placement = Placer.Center.place_permuted rng (Mapper.component ctx) ~num_qubits:nq in
        match Mapper.run_forward ctx placement with
        | Ok r ->
            let err =
              Noise.Estimate.error_probability model
                (Noise.Exposure.of_trace ~num_qubits:nq r.Simulator.Engine.trace)
            in
            (r.Simulator.Engine.latency, err)
        | Error e -> failwith ("Experiments.objective_study: " ^ Simulator.Engine.string_of_error e))
  in
  let best_by f = List.fold_left (fun acc x -> if f x < f acc then x else acc) (List.hd evaluated) evaluated in
  let lat_l, lat_e = best_by fst in
  let err_l, err_e = best_by snd in
  [ ("minimize latency", lat_l, lat_e); ("minimize estimated error", err_l, err_e) ]

let wave_study ?(m = 5) ?circuits () =
  let circuits = match circuits with Some c -> c | None -> default_circuits () in
  List.map
    (fun (name, p) ->
      let ctx = context p in
      let wave =
        match Wave_mapper.map ctx with
        | Ok o -> o
        | Error e -> failwith ("Experiments.wave_study: " ^ Mapper.error_to_string e)
      in
      let overused =
        List.fold_left (fun acc (l : Wave_mapper.level_stat) -> acc + l.Wave_mapper.overused) 0
          wave.Wave_mapper.levels
      in
      let qspr = map_exn ~m Mvfb "QSPR" ctx in
      (name, wave.Wave_mapper.latency, qspr.Mapper.latency, overused))
    circuits

let basis_study ?(m = 5) ?circuits () =
  let circuits = match circuits with Some c -> c | None -> default_circuits () in
  List.map
    (fun (name, p) ->
      let native = map_exn ~m Mvfb "native" (context p) in
      let cx = map_exn ~m Mvfb "cx" (context (Qasm.Basis.to_cx_basis p)) in
      (name, native.Mapper.latency, cx.Mapper.latency))
    circuits

let eq1_breakdown ?(m = 5) ?circuits () =
  let circuits = match circuits with Some c -> c | None -> default_circuits () in
  List.map
    (fun (name, p) ->
      let ctx = context p in
      let tm = (Mapper.config ctx).Config.timing in
      let breakdown placement_of =
        match placement_of with
        | Ok (r : Simulator.Engine.result) ->
            Simulator.Breakdown.of_result ~timing:tm ~dag:(Mapper.dag ctx) r
        | Error e -> failwith ("Experiments.eq1_breakdown: " ^ Simulator.Engine.string_of_error e)
      in
      (* engine-level runs so per-instruction stats are available *)
      let qspr_sol = map_exn ~m Mvfb "QSPR" ctx in
      let qspr = breakdown (Mapper.run_forward ctx qspr_sol.Mapper.initial_placement) in
      let center = Placer.Center.place (Mapper.component ctx) ~num_qubits:(Qasm.Program.num_qubits p) in
      let quale =
        breakdown
          (Mapper.run_with ctx ~policy:(Mapper.config ctx).Config.quale_policy
             ~priorities:(Mapper.quale_priorities ctx) ~placement:center)
      in
      (name, qspr, quale))
    circuits

let noise_sweep ?(circuit = "[[9,1,3]]") ?(scales = [ 0.5; 1.0; 2.0; 4.0 ]) ?(trials = 200) () =
  let p =
    match List.assoc_opt circuit (default_circuits ()) with
    | Some p -> p
    | None -> failwith ("Experiments.noise_sweep: unknown circuit " ^ circuit)
  in
  let ctx = context p in
  let qspr = map_exn ~m:5 Mvfb "QSPR" ctx in
  let quale = solve_exn "QUALE" (Mapper.map Quale ctx) in
  List.map
    (fun scale ->
      (* dephasing off: the sweep isolates the transport-error axis where
         the two mappings differ (QUALE's capacity-1 detours move ions
         further) *)
      let model =
        Noise.Model.make
          ~eps_move:(Float.min 0.5 (0.002 *. scale))
          ~eps_turn:(Float.min 0.5 (0.01 *. scale))
          ~t2_us:1e12 ()
      in
      let rate trace =
        match
          Noise.Montecarlo.simulate ~rng:(Ion_util.Rng.create 17) ~model ~program:p ~trace ~trials ()
        with
        | Ok s -> s.Noise.Montecarlo.failure_rate
        | Error e -> failwith ("Experiments.noise_sweep: " ^ e)
      in
      (scale, rate qspr.Mapper.trace, rate quale.Mapper.trace))
    scales

(* mapped latency of the center placement under each (name, engine policy,
   priorities) row; both engine studies below are tables of such rows *)
let center_latencies who ctx rows =
  let placement =
    Placer.Center.place (Mapper.component ctx)
      ~num_qubits:(Qasm.Program.num_qubits (Mapper.program ctx))
  in
  List.map
    (fun (name, policy, priorities) ->
      match Mapper.run_with ctx ~policy ~priorities ~placement with
      | Ok r -> (name, r.Simulator.Engine.latency)
      | Error e -> failwith (who ^ ": " ^ Simulator.Engine.string_of_error e))
    rows

let priority_study ?(circuit = "[[9,1,3]]") () =
  let p =
    match List.assoc_opt circuit (default_circuits ()) with
    | Some p -> p
    | None -> failwith ("Experiments.priority_study: unknown circuit " ^ circuit)
  in
  let ctx = context p in
  let cfg = Mapper.config ctx in
  let delay = Router.Timing.gate_delay cfg.Config.timing in
  let n = Qasm.Dag.num_nodes (Mapper.dag ctx) in
  let row (name, priority) =
    (name, cfg.Config.qspr_policy, Scheduler.Priority.compute priority ~delay (Mapper.dag ctx))
  in
  center_latencies "Experiments.priority_study" ctx
    (List.map row
       [
         ("qspr (dependents + path)", Scheduler.Priority.qspr_default);
         ("alap (QUALE)", Scheduler.Priority.Alap);
         ("dependents count (QPOS)", Scheduler.Priority.Dependents_count);
         ("dependent delay ([5])", Scheduler.Priority.Dependent_delay);
         (* adversarial control: issue late instructions first — shows the
            priority machinery is load-bearing even where the published
            policies coincide *)
         ("anti-priority (control)", Scheduler.Priority.Fixed (Array.init n float_of_int));
       ])

(* each row disables one QSPR design choice of the engine policy and
   re-runs the same center placement under the paper's priorities *)
let ablation_study () =
  let ctx = context (Circuits.Qecc.c913 ()) in
  let qspr = (Mapper.config ctx).Config.qspr_policy in
  let priorities = Mapper.qspr_priorities ctx in
  center_latencies "Experiments.ablation_study" ctx
    (List.map
       (fun (name, policy) -> (name, policy, priorities))
       [
         ("full_qspr", qspr);
         ("turn_blind", { qspr with Simulator.Engine.turn_aware = false });
         ("capacity_1", { qspr with Simulator.Engine.channel_capacity = 1 });
         ("dest_pinned", { qspr with Simulator.Engine.routing = Simulator.Engine.Dest_pinned });
         ("single_trap_candidate", { qspr with Simulator.Engine.trap_candidates = 1 });
       ])

(* every solution already carries its certified lower bound; the study just
   lines them up against the achieved latencies so the optimality gap of
   the whole Table-1 suite is visible at a glance *)
let gaps_study ?(m = 5) ?circuits () =
  let circuits = match circuits with Some c -> c | None -> default_circuits () in
  List.map
    (fun (name, p) ->
      let ctx = context p in
      let s = map_exn ~m Mvfb "MVFB" ctx in
      let gap =
        if s.Mapper.lower_bound_us > 0.0 then
          (s.Mapper.latency -. s.Mapper.lower_bound_us) /. s.Mapper.lower_bound_us
        else 0.0
      in
      (name, s.Mapper.latency, s.Mapper.lower_bound_us, s.Mapper.bound_kind, gap))
    circuits

let fig23 () =
  let p = Circuits.Qecc.c513 () in
  Printf.sprintf "[[5,1,3]] encoding circuit (paper Figures 2-3), QASM listing:\n\n%s"
    (Qasm.Printer.listing p)

let fig4 () =
  let lay = fabric () in
  Printf.sprintf "45x85 ion-trap fabric (paper Figure 4); %s\n\n%s" Fabric.Render.legend
    (Fabric.Render.fabric lay)

let fig5 () =
  (* a 3x3-junction tile: junction columns x in {2,8,14}, rows y in {2,7,12} *)
  let lay =
    Fabric.Layout.make_grid ~width:17 ~height:13 ~pitch_x:6 ~pitch_y:5 ~margin:2 ~traps_per_channel:0 ()
  in
  let comp =
    match Fabric.Component.extract lay with Ok c -> c | Error e -> failwith ("fig5: " ^ e)
  in
  let graph = Fabric.Graph.build comp in
  let cong = Router.Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
  let node_at pos orientation =
    let found = ref None in
    for n = 0 to Fabric.Graph.num_nodes graph - 1 do
      if Coord.equal (Fabric.Graph.node_pos graph n) pos
         && Fabric.Graph.node_orientation graph n = Some orientation
      then found := Some n
    done;
    match !found with Some n -> n | None -> failwith "fig5: node not found"
  in
  let h = Fabric.Cell.Horizontal and v = Fabric.Cell.Vertical in
  (* bottom-left junction heading east, to top-right junction arriving
     vertically *)
  let src = node_at (Coord.make 2 12) h in
  let dst = node_at (Coord.make 14 2) v in
  (* compose a path through explicit waypoint nodes; each leg is routed
     turn-aware, so a straight leg stays straight *)
  (* an unroutable leg skips its composed path (reported in the output)
     instead of aborting the whole figure *)
  let leg a b =
    match
      Router.Dijkstra.shortest_path graph
        ~weight:(Router.Congestion.weight cong ~turn_cost:(Router.Timing.turn_cost_in_moves Router.Timing.paper))
        ~src:a ~dst:b
    with
    | Some r -> Ok r.Router.Dijkstra.edges
    | None -> Error (Printf.sprintf "leg node %d -> node %d unroutable" a b)
  in
  let via waypoints =
    let rec go acc = function
      | a :: (b :: _ as rest) -> (
          match leg a b with Ok edges -> go (acc @ edges) rest | Error _ as e -> e)
      | [ _ ] | [] -> Ok acc
    in
    Result.map (fun edges -> Router.Path.of_edges ~src ~dst ~cost:0.0 edges) (go [] waypoints)
  in
  let direct = via [ src; node_at (Coord.make 14 12) h; dst ] in
  let zigzag =
    via
      [
        src;
        node_at (Coord.make 8 12) h;
        node_at (Coord.make 8 7) v;
        node_at (Coord.make 14 7) h;
        dst;
      ]
  in
  let model_cost turn_cost p =
    let c = ref 0.0 in
    for i = 0 to Router.Path.step_count p - 1 do
      c := !c +. Router.Congestion.weight cong ~turn_cost (Router.Path.step_kind p i)
    done;
    !c
  in
  let turn_aware_cost = model_cost (Router.Timing.turn_cost_in_moves Router.Timing.paper) in
  let blind_cost = model_cost 0.0 in
  let describe label = function
    | Ok p ->
        Printf.sprintf
          "%s: %d moves, %d turns; executed delay %.0f us; model cost %.0f (turn-aware) vs %.0f (turn-blind)\n%s"
          label (Router.Path.moves p) (Router.Path.turns p)
          (Router.Path.duration Router.Timing.paper p)
          (turn_aware_cost p) (blind_cost p)
          (Fabric.Render.path lay (Router.Path.cells graph p))
    | Error reason -> Printf.sprintf "%s: skipped — %s\n" label reason
  in
  let chosen =
    match
      Router.Dijkstra.shortest_path graph
        ~weight:
          (Router.Congestion.weight cong ~turn_cost:(Router.Timing.turn_cost_in_moves Router.Timing.paper))
        ~src ~dst
    with
    | Some r -> Ok (Router.Path.of_result ~src ~dst r)
    | None -> Error "src and dst are not connected"
  in
  let header =
    match (direct, zigzag) with
    | Ok d, Ok z ->
        Printf.sprintf
          "Routing graph models (paper Figure 5): the direct and zigzag routes have\n\
           equal Manhattan distance, so the turn-blind model rates them identically\n\
           (both cost %d) and may pick either; the turn-aware model separates them\n\
           (%.0f vs %.0f) and always selects the single-turn path.\n"
          (Router.Path.moves d) (turn_aware_cost d) (turn_aware_cost z)
    | _ ->
        "Routing graph models (paper Figure 5): one or more composed routes were\n\
         unroutable on this tile; the affected paths are reported as skipped below.\n"
  in
  let footer =
    match chosen with
    | Ok p ->
        Printf.sprintf "Dijkstra under turn-aware weights selects: %d moves, %d turns (the direct path).\n"
          (Router.Path.moves p) (Router.Path.turns p)
    | Error reason -> Printf.sprintf "Dijkstra under turn-aware weights: skipped — %s.\n" reason
  in
  Printf.sprintf "%s\n%s\n%s\n%s" header
    (describe "path (1), direct" direct)
    (describe "path (2), zigzag" zigzag)
    footer
