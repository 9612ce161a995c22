module Coord = Ion_util.Coord
module Json = Ion_util.Json

type placer_cell = { latency : float; cpu_ms : float; runs : int }

type table1_row = {
  circuit : string;
  mvfb_25 : placer_cell;
  mc_25 : placer_cell;
  mvfb_100 : placer_cell;
  mc_100 : placer_cell;
}

type table2_row = { circuit : string; baseline : float; quale : float; qspr : float }

let us v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.1f" v
let improvement_pct ~quale ~qspr = (quale -. qspr) /. quale *. 100.0

let fabric () = Fabric.Layout.quale_45x85 ()

let context program =
  match Mapper.create ~fabric:(fabric ()) program with
  | Ok ctx -> ctx
  | Error e -> failwith ("Experiments.context: " ^ e)

let default_circuits () = Circuits.Qecc.all ()

(* a builtin circuit by name; [study] names the caller in the failure *)
let builtin study circuit =
  match List.assoc_opt circuit (default_circuits ()) with
  | Some p -> p
  | None -> failwith (Printf.sprintf "Experiments.%s: unknown circuit %s" study circuit)

let solve_exn label = function
  | Ok (s : Mapper.solution) -> s
  | Error e ->
      failwith (Printf.sprintf "Experiments: %s failed: %s" label (Mapper.error_to_string e))

(* [m] is MVFB's seed count or Monte-Carlo's run count *)
let map_exn ~m strategy label ctx =
  solve_exn label (Mapper.map strategy (Mapper.with_search (Config.with_m m) ctx))

let cell_of (s : Mapper.solution) =
  { latency = s.Mapper.latency; cpu_ms = s.Mapper.cpu_time_s *. 1000.0; runs = s.Mapper.placement_runs }

(* one circuit, one seed count: MVFB then MC at the same run budget *)
let placer_pair ctx ~m =
  let mvfb = map_exn ~m Mvfb "MVFB" ctx in
  let mc = map_exn ~m:mvfb.Mapper.placement_runs Monte_carlo "MC" ctx in
  (cell_of mvfb, cell_of mc)

let table1 ?(m_small = 25) ?(m_large = 100) ?circuits () =
  let circuits = match circuits with Some c -> c | None -> default_circuits () in
  (* One circuit at a time, one search at a time: [Sys.time] is
     process-wide, so the CPU columns are per search only when nothing
     else runs beside it. *)
  List.map
    (fun (name, p) ->
      let ctx = context p in
      let mvfb_25, mc_25 = placer_pair ctx ~m:m_small in
      let mvfb_100, mc_100 = placer_pair ctx ~m:m_large in
      { circuit = name; mvfb_25; mc_25; mvfb_100; mc_100 })
    circuits

let table2 ?(m = 100) ?circuits () =
  let circuits = match circuits with Some c -> c | None -> default_circuits () in
  List.map
    (fun (name, p) ->
      let ctx = context p in
      let baseline = Mapper.ideal_latency ctx in
      let quale = solve_exn "QUALE" (Mapper.map Quale ctx) in
      let qspr = map_exn ~m Mvfb "QSPR" ctx in
      ({ circuit = name; baseline; quale = quale.Mapper.latency; qspr = qspr.Mapper.latency } : table2_row))
    circuits

let sensitivity ?(ms = [ 1; 5; 10; 25; 50; 100 ]) ?(circuit = "[[9,1,3]]") () =
  let p = builtin "sensitivity" circuit in
  let ctx = context p in
  List.map
    (fun m ->
      let mvfb = map_exn ~m Mvfb "MVFB" ctx in
      let mc = map_exn ~m:mvfb.Mapper.placement_runs Monte_carlo "MC" ctx in
      (m, mvfb.Mapper.latency, mvfb.Mapper.placement_runs, mc.Mapper.latency))
    ms

let congestion_maps ?(circuit = "[[19,1,7]]") () =
  let p = builtin "congestion_maps" circuit in
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

let placer_comparison () =
  let p = Circuits.Qecc.c913 () in
  let ctx = context p in
  let comp = Mapper.component ctx in
  let nq = Qasm.Program.num_qubits p in
  let evaluate = Mapper.run_forward ctx in
  let engine_of label = function
    | Ok (r : Simulator.Engine.score) -> r.Simulator.Engine.latency
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

let estimator_accuracy () =
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
    (default_circuits ())

type prescreen_stats = {
  plain_latency : float;
  plain_evals : int;
  prescreened_latency : float;
  prescreened_evals : int;
}

let prescreen_study ?(circuit = "[[9,1,3]]") () =
  let runs = 25 and k = 5 in
  let p = builtin "prescreen_study" circuit in
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
  let p = builtin "fabric_study" circuit in
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

let optimality_study () =
  let p = Circuits.Qecc.c513 () in
  let ctx = context p in
  let nq = Qasm.Program.num_qubits p in
  let exhaustive =
    match
      Placer.Exhaustive.search ~candidate_traps:6 ~evaluate:(Mapper.run_forward ctx) (Mapper.component ctx)
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
  let p = builtin "empirical_noise" circuit in
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
  let p = builtin "objective_study" circuit in
  let ctx = context p in
  let nq = Qasm.Program.num_qubits p in
  let model = Noise.Model.make ~eps_move:0.002 ~eps_turn:0.01 ~t2_us:50_000.0 () in
  let rng = Ion_util.Rng.create (Mapper.config ctx).Config.rng_seed in
  let evaluated =
    List.init samples (fun _ ->
        let placement = Placer.Center.place_permuted rng (Mapper.component ctx) ~num_qubits:nq in
        match Mapper.replay ctx Placer.Search.Forward placement with
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

let eq1_breakdown ?(m = 5) () =
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
      let qspr =
        breakdown (Mapper.replay ctx Placer.Search.Forward qspr_sol.Mapper.initial_placement)
      in
      let center = Placer.Center.place (Mapper.component ctx) ~num_qubits:(Qasm.Program.num_qubits p) in
      let quale =
        breakdown
          (Mapper.run_with ctx ~policy:Simulator.Engine.quale_policy
             ~priorities:(Mapper.quale_priorities ctx) ~placement:center)
      in
      (name, qspr, quale))
    (default_circuits ())

let noise_sweep ?(trials = 200) () =
  let p = Circuits.Qecc.c913 () in
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
    [ 0.5; 1.0; 2.0; 4.0 ]

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
  let p = builtin "priority_study" circuit in
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
let gaps_study ?(m = 5) () =
  List.map
    (fun (name, p) ->
      let ctx = context p in
      let s = map_exn ~m Mvfb "MVFB" ctx in
      let gap =
        Option.value ~default:0.0
          (Estimator.Bound.gap ~latency:s.Mapper.latency ~bound:s.Mapper.lower_bound_us)
      in
      (name, s.Mapper.latency, s.Mapper.lower_bound_us, s.Mapper.bound_kind, gap))
    (default_circuits ())

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
  (* an idle fabric: every weight is the congestion-free Eq. 2 cost *)
  let turn_cost = Router.Timing.turn_cost_in_moves Router.Timing.paper in
  let weights = Router.Lower_bound.base_weights graph ~turn_cost in
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
    match Router.Dijkstra.shortest_path graph ~weights ~src:a ~dst:b with
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
      c := !c +. Router.Lower_bound.base_weight ~turn_cost (Router.Path.step_kind p i)
    done;
    !c
  in
  let turn_aware_cost = model_cost turn_cost in
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
    match Router.Dijkstra.shortest_path graph ~weights ~src ~dst with
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
(* ------------------------------------------------------------------ *)
(* Tables and the study registry                                      *)

type cell = { text : string; value : Json.t }
type column = { header : string; key : string }
type table = { columns : column list; rows : cell list list }
type section = Table of table | Text of { text : string; json : Json.t option }

let markdown = function
  | Table t ->
      Ion_util.Ascii_table.render
        ~header:(List.map (fun c -> c.header) t.columns)
        ~rows:(List.map (List.map (fun c -> c.text)) t.rows)
  | Text { text; _ } -> "```\n" ^ text ^ (if String.ends_with ~suffix:"\n" text then "" else "\n") ^ "```\n"

let json t =
  Json.List (List.map (fun row -> Json.Obj (List.map2 (fun c cell -> (c.key, cell.value)) t.columns row)) t.rows)

(* cells: the printed text and the raw value behind it; a repeated row
   label prints [blank] and keeps its value *)
let str s = { text = s; value = Json.String s }
let count n = { text = string_of_int n; value = Json.Int n }
let num fmt v = { text = Printf.sprintf fmt v; value = Json.Float v }
let lat v = { text = us v; value = Json.Float v }
let blank s = { text = ""; value = Json.String s }
let unknown = { text = "?"; value = Json.Null }
let pct fmt v = { text = Printf.sprintf fmt (100.0 *. v); value = Json.Float v }

(* [columns] are (header, JSON key) pairs *)
let table columns rows = Table { columns = List.map (fun (header, key) -> { header; key }) columns; rows }
let text s = Text { text = s; json = None }

let plot series =
  text (Ion_util.Plot.render (List.map (fun (label, glyph, points) -> { Ion_util.Plot.label; points; glyph }) series))

(* (name, latency) rows: the engine and placement studies *)
let latency_table label rows =
  table [ (label, String.lowercase_ascii label); ("latency (us)", "latency_us") ]
    (List.map (fun (name, latency) -> [ str name; num "%.1f" latency ]) rows)

(* the JSON keys keep the paper's m = 25 / m = 100 names at any m *)
let table1_section ~m_small ~m_large rows =
  let columns m key =
    [ (Printf.sprintf "m=%d latency (us)" m, key ^ "_latency_us"); (Printf.sprintf "m=%d CPU (ms)" m, key ^ "_cpu_ms");
      (Printf.sprintf "m=%d runs" m, key ^ "_runs") ]
  in
  let cells c = [ lat c.latency; num "%.0f" c.cpu_ms; count c.runs ] in
  table
    ([ ("Circuit", "circuit"); ("Placer", "placer") ] @ columns m_small "m25" @ columns m_large "m100")
    (List.concat_map
       (fun (r : table1_row) ->
         [ (str r.circuit :: str "MVFB" :: cells r.mvfb_25) @ cells r.mvfb_100;
           (blank r.circuit :: str "MC" :: cells r.mc_25) @ cells r.mc_100 ])
       rows)

let table2_section rows =
  let paper = function Some v -> lat v | None -> unknown in
  table
    [ ("Circuit", "circuit"); ("Baseline (us)", "baseline_us"); ("QUALE (us)", "quale_us");
      ("QUALE paper (us)", "quale_paper_us"); ("QSPR (us)", "qspr_us"); ("QSPR paper (us)", "qspr_paper_us");
      ("QUALE - baseline (us)", "quale_over_baseline_us"); ("QSPR - baseline (us)", "qspr_over_baseline_us");
      ("Impr. (%)", "improvement_pct"); ("Impr. paper (%)", "improvement_paper_pct") ]
    (List.map
       (fun (r : table2_row) ->
         let paper_quale = Circuits.Qecc.paper_quale_latency_us r.circuit in
         let paper_qspr = Circuits.Qecc.paper_qspr_latency_us r.circuit in
         [ str r.circuit; lat r.baseline; lat r.quale; paper paper_quale; lat r.qspr; paper paper_qspr;
           lat (r.quale -. r.baseline); lat (r.qspr -. r.baseline);
           num "%.2f" (improvement_pct ~quale:r.quale ~qspr:r.qspr);
           (match (paper_quale, paper_qspr) with
           | Some quale, Some qspr -> num "%.1f" (improvement_pct ~quale ~qspr)
           | _ -> unknown) ])
       rows)

type study = { name : string; title : string; run : fast:bool -> section list }

(* --fast shrinks the seed counts, trials and samples so the whole
   registry runs in seconds; the full values are the paper's protocol *)
let m_small ~fast = if fast then 3 else 25
let m_large ~fast = if fast then 6 else 100
let m_study ~fast = if fast then 2 else 5

let studies =
  [
    { name = "table1"; title = "Table 1: MVFB vs Monte-Carlo (equal placement-run budget)";
      run =
        (fun ~fast ->
          let m_small = m_small ~fast and m_large = m_large ~fast in
          [ table1_section ~m_small ~m_large (table1 ~m_small ~m_large ()) ]) };
    { name = "table2"; title = "Table 2: Baseline vs QUALE vs QSPR, measured and published";
      run = (fun ~fast -> [ table2_section (table2 ~m:(m_large ~fast) ()) ]) };
    { name = "sensitivity"; title = "Sensitivity to m (Section IV.A), circuit [[9,1,3]]";
      run =
        (fun ~fast ->
          let rows = sensitivity ~ms:(if fast then [ 1; 2; 5 ] else [ 1; 5; 10; 25; 50; 100 ]) () in
          [ table
              [ ("m", "m"); ("MVFB latency (us)", "mvfb_latency_us"); ("MVFB runs", "mvfb_runs");
                ("MC latency (us, equal runs)", "mc_latency_us") ]
              (List.map (fun (m, mvfb, runs, mc) -> [ count m; lat mvfb; count runs; lat mc ]) rows);
            plot
              [ ("MVFB", 'v', List.map (fun (m, l, _, _) -> (float_of_int m, l)) rows);
                ("MC (equal runs)", 'c', List.map (fun (m, _, _, l) -> (float_of_int m, l)) rows) ] ]) };
    { name = "priorities"; title = "Scheduling-priority ablation (Section III), circuit [[9,1,3]]";
      run = (fun ~fast:_ -> [ latency_table "Policy" (priority_study ()) ]) };
    { name = "ablation"; title = "Design-choice ablation ([[9,1,3]], center placement)";
      run = (fun ~fast:_ -> [ latency_table "Variant" (ablation_study ()) ]) };
    { name = "noise"; title = "Noise study: estimated success probability, QSPR vs QUALE mappings";
      run =
        (fun ~fast ->
          [ table
              [ ("circuit", "circuit"); ("P(ok) QSPR", "p_success_qspr"); ("P(ok) QUALE", "p_success_quale");
                ("error reduction (%)", "error_reduction_pct") ]
              (List.map
                 (fun (name, qspr, quale) ->
                   [ str name; num "%.4f" qspr; num "%.4f" quale;
                     num "%.1f" ((qspr -. quale) /. (1.0 -. quale) *. 100.0) ])
                 (noise_study ~m:(m_small ~fast) ())) ]) };
    { name = "empirical"; title = "Empirical noise validation (Monte-Carlo over the mapped trace, [[9,1,3]])";
      run =
        (fun ~fast ->
          [ table
              [ ("mapping", "mapping"); ("latency (us)", "latency_us"); ("P(ok) analytic", "p_success_analytic");
                ("P(ok) measured", "p_success_measured") ]
              (List.map
                 (fun (label, latency, analytic, measured) ->
                   [ str label; num "%.0f" latency; num "%.3f" analytic; num "%.3f" measured ])
                 (empirical_noise ~trials:(if fast then 100 else 300) ())) ]) };
    { name = "noise-sweep"; title = "Failure rate vs transport-noise scale (Monte-Carlo, [[9,1,3]])";
      run =
        (fun ~fast ->
          let rows = noise_sweep ~trials:(if fast then 60 else 200) () in
          [ table
              [ ("scale", "scale"); ("QSPR failure", "qspr_failure_rate"); ("QUALE failure", "quale_failure_rate") ]
              (List.map (fun (s, fq, fu) -> [ num "%.1f" s; num "%.3f" fq; num "%.3f" fu ]) rows);
            plot
              [ ("QSPR", 'q', List.map (fun (s, fq, _) -> (s, fq)) rows);
                ("QUALE", 'u', List.map (fun (s, _, fu) -> (s, fu)) rows) ] ]) };
    { name = "eq1"; title = "Eq. 1 latency decomposition (T_gate + T_routing + T_congestion)";
      run =
        (fun ~fast ->
          let row name tag (t : Simulator.Breakdown.totals) =
            [ str name; str tag; num "%.0f" t.gate_us; num "%.0f" t.routing_us; num "%.0f" t.congestion_us ]
          in
          [ table
              [ ("circuit", "circuit"); ("mapper", "mapper"); ("T_gate (us)", "gate_us");
                ("T_routing (us)", "routing_us"); ("T_congestion (us)", "congestion_us") ]
              (List.concat_map
                 (fun (name, qspr, quale) -> [ row name "QSPR" qspr; row name "QUALE" quale ])
                 (eq1_breakdown ~m:(m_study ~fast) ())) ]) };
    { name = "basis"; title = "Gate-basis cost: native controlled-Paulis vs CX-only machines";
      run =
        (fun ~fast ->
          [ table
              [ ("circuit", "circuit"); ("native (us)", "native_us"); ("cx-basis (us)", "cx_basis_us");
                ("overhead (%)", "overhead_pct") ]
              (List.map
                 (fun (name, native, cx) ->
                   [ str name; num "%.0f" native; num "%.0f" cx; num "%.1f" ((cx -. native) /. native *. 100.0) ])
                 (basis_study ~m:(m_study ~fast) ())) ]) };
    { name = "wave"; title = "Wave (phase-synchronous PathFinder) mapping vs the event-driven engine";
      run =
        (fun ~fast ->
          [ table
              [ ("circuit", "circuit"); ("wave (us)", "wave_us"); ("QSPR (us)", "qspr_us");
                ("paper QUALE (us)", "quale_paper_us"); ("overuses", "overuses") ]
              (List.map
                 (fun (name, wave, qspr, overuses) ->
                   [ str name; num "%.0f" wave; num "%.0f" qspr;
                     Option.fold ~none:unknown ~some:(num "%.0f") (Circuits.Qecc.paper_quale_latency_us name);
                     count overuses ])
                 (wave_study ~m:(m_study ~fast) ())) ]) };
    { name = "objective"; title = "Objective alignment: latency-optimal vs error-optimal placement ([[9,1,3]])";
      run =
        (fun ~fast ->
          [ table
              [ ("objective", "objective"); ("latency (us)", "latency_us"); ("error prob", "error_probability") ]
              (List.map
                 (fun (name, latency, error) -> [ str name; num "%.0f" latency; num "%.4f" error ])
                 (objective_study ~samples:(if fast then 12 else 40) ())) ]) };
    { name = "optimality"; title = "Optimality gap ([[5,1,3]], 6 candidate traps)";
      run = (fun ~fast:_ -> [ latency_table "Placement" (optimality_study ()) ]) };
    { name = "fabric-study"; title = "Fabric-geometry sensitivity ([[9,1,3]], MVFB m=5)";
      run = (fun ~fast:_ -> [ latency_table "Fabric" (fabric_study ()) ]) };
    { name = "placers"; title = "Placer comparison ([[9,1,3]], equal evaluation budgets)";
      run =
        (fun ~fast:_ ->
          [ table
              [ ("placer", "placer"); ("latency (us)", "latency_us"); ("evaluations", "evaluations") ]
              (List.map
                 (fun (name, latency, evals) -> [ str name; num "%.0f" latency; count evals ])
                 (placer_comparison ())) ]) };
    { name = "estimator"; title = "Estimator accuracy: fast model vs measured engine (center placements)";
      run =
        (fun ~fast:_ ->
          let rows = estimator_accuracy () in
          let mean = List.fold_left (fun acc (_, _, _, rel) -> acc +. rel) 0.0 rows /. float_of_int (List.length rows) in
          [ table
              [ ("circuit", "circuit"); ("estimated (us)", "estimated_us"); ("measured (us)", "measured_us");
                ("rel error (%)", "relative_error") ]
              (List.map (fun (name, est, meas, rel) -> [ str name; num "%.1f" est; num "%.1f" meas; pct "%+.1f" rel ]) rows);
            table [ ("mean absolute relative error (%)", "mean_relative_error") ] [ [ pct "%.1f" mean ] ] ]) };
    { name = "prescreen"; title = "Pre-screened vs exhaustive Monte-Carlo (runs=25, prescreen_k=5)";
      run =
        (fun ~fast:_ ->
          [ table
              [ ("circuit", "circuit"); ("plain (us)", "plain_latency_us"); ("plain evals", "plain_evals");
                ("prescreened (us)", "prescreened_latency_us"); ("prescreened evals", "prescreened_evals");
                ("speedup (x)", "speedup"); ("delta (%)", "latency_delta") ]
              (List.map
                 (fun (name, _) ->
                   let s = prescreen_study ~circuit:name () in
                   [ str name; num "%.0f" s.plain_latency; count s.plain_evals; num "%.0f" s.prescreened_latency;
                     count s.prescreened_evals;
                     num "%.1f" (float_of_int s.plain_evals /. float_of_int s.prescreened_evals);
                     pct "%+.2f" ((s.prescreened_latency -. s.plain_latency) /. s.plain_latency) ])
                 (default_circuits ())) ]) };
    { name = "congestion"; title = "Congestion heatmaps ([[19,1,7]]): QSPR (capacity 2) vs QUALE (capacity 1)";
      run =
        (fun ~fast:_ ->
          let qspr, quale = congestion_maps () in
          [ text ("QSPR mapping:\n" ^ qspr); text ("QUALE mapping:\n" ^ quale) ]) };
    { name = "scaling"; title = "Scaling on random Clifford workloads (MVFB m=3)";
      run =
        (fun ~fast:_ ->
          [ table
              [ ("qubits", "qubits"); ("gates", "gates"); ("latency (us)", "latency_us"); ("cpu (s)", "cpu_s") ]
              (List.map
                 (fun (nq, gates, latency, cpu) -> [ count nq; count gates; num "%.0f" latency; num "%.2f" cpu ])
                 (scaling_study ())) ]) };
    { name = "gaps"; title = "Optimality gaps: achieved latency vs certified lower bound (MVFB, Table-1 suite)";
      run =
        (fun ~fast ->
          [ table
              [ ("circuit", "circuit"); ("latency (us)", "latency_us"); ("bound (us)", "lower_bound_us");
                ("kind", "bound_kind"); ("gap (%)", "optimality_gap") ]
              (List.map
                 (fun (c, latency, bound, kind, gap) ->
                   [ str c; num "%.1f" latency; num "%.1f" bound; str (Estimator.Bound.kind_to_string kind);
                     pct "%.1f" gap ])
                 (gaps_study ~m:(if fast then 2 else 25) ())) ]) };
    { name = "fig23"; title = "Figures 2-3"; run = (fun ~fast:_ -> [ text (fig23 ()) ]) };
    { name = "fig4"; title = "Figure 4"; run = (fun ~fast:_ -> [ text (fig4 ()) ]) };
    { name = "fig5"; title = "Figure 5"; run = (fun ~fast:_ -> [ text (fig5 ()) ]) };
  ]
