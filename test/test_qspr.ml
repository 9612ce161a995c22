(* End-to-end tests of the QSPR core library: config validation, the mapper
   flows (MVFB / Monte-Carlo / center), the QUALE comparator, backward-trace
   reversal, full trace validation of winning solutions, and the paper's
   headline orderings (baseline <= QSPR <= QUALE). *)

open Qspr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let fabric () = Fabric.Layout.quale_45x85 ()

let small_config = Config.with_m 3 (Config.with_seed 99 Config.default)

let ctx_of ?(config = small_config) program =
  match Mapper.create ~fabric:(fabric ()) ~config program with
  | Ok c -> c
  | Error e -> Alcotest.failf "Mapper.create: %s" e

let c513 () = Circuits.Qecc.c513 ()

(* --------------------------------------------------------------- Config *)

let test_config_default_is_paper () =
  let c = Config.default in
  check_float "t2q" 100.0 c.Config.timing.Router.Timing.t_gate2;
  check_int "channel capacity" 2 c.Config.qspr_policy.Simulator.Engine.channel_capacity;
  check_int "quale capacity" 1 c.Config.quale_policy.Simulator.Engine.channel_capacity;
  check_int "m" 100 c.Config.m;
  check_bool "validates" true (Config.validate c = Ok c);
  (* a constant, whatever the environment says *)
  check_bool "default is the literal paper constants" true
    (c
    = {
        Config.timing = Router.Timing.paper;
        qspr_policy = Simulator.Engine.qspr_policy;
        quale_policy = Simulator.Engine.quale_policy;
        m = 100;
        sa_moves = 20_000;
        patience = 3;
        rng_seed = 2012;
        jobs = 1;
        prescreen_k = None;
        budget = Config.no_budget;
      })

let test_config_guards () =
  (match Config.validate (Config.with_m 0 Config.default) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "m=0 accepted");
  match Config.validate { Config.default with Config.patience = 0 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "patience=0 accepted"

(* Config.of_env over a fake environment: each variable valid, unparsable,
   out of range and unset.  Only a valid value moves its field off the base;
   the base is not the default, so "keeps the base" is observable. *)
let test_config_of_env () =
  let base =
    Config.(
      default |> with_jobs 3 |> with_prescreen (Some 4) |> with_sa_moves 777
      |> with_budget { no_budget with wall_s = Some 9.0; max_evals = Some 11 })
  in
  let apply bindings = Config.of_env (fun name -> List.assoc_opt name bindings) base in
  let cases name ~valid ~set =
    check_bool (name ^ " valid") true (apply [ (name, valid) ] = set base);
    List.iter
      (fun (label, bindings) -> check_bool (name ^ " " ^ label) true (apply bindings = base))
      [
        ("unparsable", [ (name, "lots") ]);
        ("out of range", [ (name, "0") ]);
        ("unset", [ ("OTHER", valid) ]);
      ]
  in
  let budget f c = Config.with_budget (f c.Config.budget) c in
  cases "QSPR_JOBS" ~valid:" 4 " ~set:(Config.with_jobs 4);
  cases "QSPR_PRESCREEN" ~valid:"2" ~set:(Config.with_prescreen (Some 2));
  cases "QSPR_SA_MOVES" ~valid:"50" ~set:(Config.with_sa_moves 50);
  cases "QSPR_BUDGET" ~valid:"0.5" ~set:(budget (fun b -> { b with Config.wall_s = Some 0.5 }));
  cases "QSPR_BUDGET_EVALS" ~valid:"1" ~set:(budget (fun b -> { b with Config.max_evals = Some 1 }));
  check_bool "an empty environment changes nothing" true (apply [] = base);
  check_bool "a negative wall-clock budget is out of range" true
    ((apply [ ("QSPR_BUDGET", "-1") ]).Config.budget.Config.wall_s = Some 9.0)

let test_with_search () =
  let ctx = ctx_of (c513 ()) in
  let ctx' = Mapper.with_search (Config.with_m 7) ctx in
  check_int "search parameters change" 7 (Mapper.config ctx').Config.m;
  check_int "the original is untouched" 3 (Mapper.config ctx).Config.m;
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check_bool "timing is fixed at create" true
    (raises (fun () ->
         Mapper.with_search
           (fun c -> { c with Config.timing = { c.Config.timing with Router.Timing.t_move = 2.0 } })
           ctx));
  check_bool "the new config is validated" true
    (raises (fun () -> Mapper.with_search (Config.with_m 0) ctx))

(* --------------------------------------------------------------- Mapper *)

let test_create_rejects_oversized_program () =
  let b = Qasm.Program.builder ~name:"huge" () in
  for i = 0 to 200 do
    ignore (Qasm.Program.add_qubit b (Printf.sprintf "q%d" i))
  done;
  let p = Qasm.Program.build_exn b in
  match Mapper.create ~fabric:(fabric ()) p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "program larger than the fabric accepted"

let test_ideal_latency_513 () =
  let ctx = ctx_of (c513 ()) in
  check_float "baseline 510" 510.0 (Mapper.ideal_latency ctx)

let test_center_flow () =
  let ctx = ctx_of (c513 ()) in
  match Mapper.map Center ctx with
  | Error e -> Alcotest.fail (Mapper.error_to_string e)
  | Ok sol ->
      check_int "one run" 1 sol.Mapper.placement_runs;
      check_bool "above baseline" true (sol.Mapper.latency >= 510.0);
      check_bool "direction forward" true (sol.Mapper.direction = Placer.Mvfb.Forward)

let test_mvfb_beats_or_equals_center () =
  let ctx = ctx_of (c513 ()) in
  let center =
    match Mapper.map Center ctx with Ok s -> s | Error e -> Alcotest.fail (Mapper.error_to_string e)
  in
  let mvfb =
    match Mapper.map Mvfb ctx with Ok s -> s | Error e -> Alcotest.fail (Mapper.error_to_string e)
  in
  check_bool "mvfb <= center" true (mvfb.Mapper.latency <= center.Mapper.latency +. 1e-9);
  check_bool "several runs" true (mvfb.Mapper.placement_runs > 1);
  check_int "latencies recorded" mvfb.Mapper.placement_runs (List.length mvfb.Mapper.run_latencies)

let test_monte_carlo_flow () =
  let ctx = ctx_of (c513 ()) in
  match Mapper.map Monte_carlo (Mapper.with_search (Config.with_m 5) ctx) with
  | Error e -> Alcotest.fail (Mapper.error_to_string e)
  | Ok sol ->
      check_int "runs" 5 sol.Mapper.placement_runs;
      check_bool "above baseline" true (sol.Mapper.latency >= 510.0)

let check_certified what (c : Analysis.Certify.certificate) =
  if not c.Analysis.Certify.valid then
    Alcotest.failf "%s:\n%s" what
      (String.concat "\n"
         (List.map (Format.asprintf "%a" Analysis.Finding.pp) c.Analysis.Certify.findings))

(* Any winning solution's trace must pass certification; for a Backward
   winner this exercises Trace.reverse end-to-end. *)
let test_solution_trace_validates () =
  let ctx = ctx_of (c513 ()) in
  match Mapper.map Mvfb ctx with
  | Error e -> Alcotest.fail (Mapper.error_to_string e)
  | Ok sol ->
      check_certified
        (Printf.sprintf "winning trace invalid (direction %s)"
           (match sol.Mapper.direction with
           | Placer.Mvfb.Forward -> "fwd"
           | Placer.Mvfb.Backward -> "bwd"))
        (Analysis.Certify.of_solution ctx sol)

(* Force evaluation of a backward trace: run the backward pass directly and
   certify its reversal from the appropriate placement. *)
let test_backward_trace_reversed_validates () =
  let ctx = ctx_of (c513 ()) in
  let fwd =
    match Mapper.run_forward ctx (Placer.Center.place (Mapper.component ctx) ~num_qubits:5) with
    | Ok r -> r
    | Error e -> Alcotest.fail (Simulator.Engine.string_of_error e)
  in
  let bwd =
    match Mapper.run_backward ctx fwd.Simulator.Engine.final_placement with
    | Ok r -> r
    | Error e -> Alcotest.fail (Simulator.Engine.string_of_error e)
  in
  (* the backward run's gate events name UIDG nodes: its k-th gate is the
     inverse of the (G-1-k)-th forward gate, declarations keep their ids *)
  let dag = Mapper.dag ctx in
  let udag = match Qasm.Dag.reverse dag with Ok u -> u | Error e -> Alcotest.fail e in
  let gate_nodes d =
    List.filter
      (fun i -> Qasm.Instr.is_gate (Qasm.Dag.node d i).Qasm.Dag.instr)
      (List.init (Qasm.Dag.num_nodes d) Fun.id)
  in
  let fwd_gates = Array.of_list (gate_nodes dag) in
  let g = Array.length fwd_gates in
  let forward_id = Array.init (Qasm.Dag.num_nodes udag) Fun.id in
  List.iteri (fun k u -> forward_id.(u) <- fwd_gates.(g - 1 - k)) (gate_nodes udag);
  let reversed =
    List.map
      (function
        | Router.Micro.Gate_start e ->
            Router.Micro.Gate_start { e with instr_id = forward_id.(e.instr_id) }
        | Router.Micro.Gate_end e -> Router.Micro.Gate_end { e with instr_id = forward_id.(e.instr_id) }
        | cmd -> cmd)
      (Simulator.Trace.reverse bwd.Simulator.Engine.trace)
  in
  check_certified "reversed backward trace invalid"
    (Analysis.Certify.check
       ~component:(Mapper.component ctx)
       ~timing:Router.Timing.paper ~channel_capacity:2 ~junction_capacity:2 ~dag
       ~initial_placement:bwd.Simulator.Engine.final_placement
       ~final_placement:fwd.Simulator.Engine.final_placement
       ~claimed_latency:bwd.Simulator.Engine.latency reversed)

let test_run_backward_requires_unitary () =
  let b = Qasm.Program.builder ~name:"meas" () in
  let q = Qasm.Program.add_qubit b "q" in
  Qasm.Program.add_gate1 b Qasm.Gate.Meas_z q;
  let ctx = ctx_of (Qasm.Program.build_exn b) in
  match Mapper.run_backward ctx [| 0 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "backward run on non-unitary program accepted"

let test_mapper_deterministic () =
  let run () =
    match Mapper.map Mvfb (ctx_of (c513 ())) with
    | Ok s -> s.Mapper.latency
    | Error e -> Alcotest.fail (Mapper.error_to_string e)
  in
  check_float "reproducible" (run ()) (run ())

(* ---------------------------------------------------------------- Quale *)

let test_quale_slower_than_qspr () =
  let ctx = ctx_of (c513 ()) in
  let quale =
    match Mapper.map Quale ctx with Ok s -> s | Error e -> Alcotest.fail (Mapper.error_to_string e)
  in
  let qspr =
    match Mapper.map Mvfb ctx with Ok s -> s | Error e -> Alcotest.fail (Mapper.error_to_string e)
  in
  check_bool "baseline <= qspr" true (510.0 <= qspr.Mapper.latency +. 1e-9);
  check_bool "qspr <= quale" true (qspr.Mapper.latency <= quale.Mapper.latency +. 1e-9)

let test_quale_trace_validates () =
  let ctx = ctx_of (c513 ()) in
  match Mapper.map Quale ctx with
  | Error e -> Alcotest.fail (Mapper.error_to_string e)
  | Ok sol ->
      check_certified "QUALE trace invalid"
        (Analysis.Certify.of_solution ~policy:Simulator.Engine.quale_policy ctx sol)

(* ------------------------------------------------------------ full sweep *)

(* Table 2's qualitative content on every circuit (small m to stay fast):
   baseline <= QSPR < QUALE. *)
let test_ordering_all_circuits () =
  List.iter
    (fun (name, p) ->
      let ctx = ctx_of ~config:(Config.with_m 2 small_config) p in
      let base = Mapper.ideal_latency ctx in
      (match Circuits.Qecc.expected_baseline_us name with
      | Some expect -> check_float (name ^ " baseline") expect base
      | None -> Alcotest.failf "missing expected baseline for %s" name);
      let quale =
    match Mapper.map Quale ctx with Ok s -> s | Error e -> Alcotest.fail (Mapper.error_to_string e)
  in
      let qspr =
    match Mapper.map Mvfb ctx with Ok s -> s | Error e -> Alcotest.fail (Mapper.error_to_string e)
  in
      check_bool (name ^ ": baseline <= qspr") true (base <= qspr.Mapper.latency +. 1e-9);
      check_bool
        (Printf.sprintf "%s: qspr (%g) < quale (%g)" name qspr.Mapper.latency quale.Mapper.latency)
        true
        (qspr.Mapper.latency < quale.Mapper.latency))
    (Circuits.Qecc.all ())

(* ----------------------------------------------------------- Wave_mapper *)

let test_wave_maps_all_benchmarks () =
  List.iter
    (fun (name, p) ->
      let ctx = ctx_of p in
      match Wave_mapper.map ctx with
      | Error e -> Alcotest.failf "%s: %s" name (Mapper.error_to_string e)
      | Ok o ->
          let base = Mapper.ideal_latency ctx in
          check_bool (name ^ ": wave above baseline") true (o.Wave_mapper.latency >= base -. 1e-9);
          check_bool (name ^ ": has levels") true (List.length o.Wave_mapper.levels > 0))
    (List.filter (fun (n, _) -> n = "[[5,1,3]]" || n = "[[9,1,3]]") (Circuits.Qecc.all ()))

let test_wave_slower_than_event_driven () =
  (* phase synchronization serializes work the busy-queue engine overlaps *)
  let ctx = ctx_of (c513 ()) in
  let wave =
    match Wave_mapper.map ctx with Ok o -> o | Error e -> Alcotest.fail (Mapper.error_to_string e)
  in
  let qspr =
    match Mapper.map Mvfb ctx with Ok s -> s | Error e -> Alcotest.fail (Mapper.error_to_string e)
  in
  check_bool
    (Printf.sprintf "wave (%g) > qspr (%g)" wave.Wave_mapper.latency qspr.Mapper.latency)
    true
    (wave.Wave_mapper.latency > qspr.Mapper.latency)

let test_wave_sublevels_disjoint () =
  (* shared-control gates land in one ASAP level; the wave mapper must not
     send one ion to two traps: c513 has exactly that shape and must map *)
  let ctx = ctx_of (c513 ()) in
  match Wave_mapper.map ctx with
  | Error e -> Alcotest.fail (Mapper.error_to_string e)
  | Ok o ->
      (* final placement is within trap bounds, at most 2 per trap *)
      let ntraps = Array.length (Fabric.Component.traps (Mapper.component ctx)) in
      let load = Array.make ntraps 0 in
      Array.iter
        (fun t ->
          check_bool "trap in range" true (t >= 0 && t < ntraps);
          load.(t) <- load.(t) + 1)
        o.Wave_mapper.final_placement;
      Array.iter (fun l -> check_bool "<=2 per trap" true (l <= 2)) load

(* ----------------------------------------------------------------- Flow *)

let test_flow_meets_loose_threshold () =
  let p = c513 () in
  match Flow.run ~error_threshold:0.5 ~efforts:[ 2 ] ~fabric:(fabric ()) ~config:small_config p with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check_bool "met" true o.Flow.met_threshold;
      check_int "one attempt" 1 (List.length o.Flow.attempts);
      check_int "nothing to optimize in fig3" 0 o.Flow.gates_removed

let test_flow_escalates_then_reports () =
  (* impossible threshold: the flow tries every effort level and reports
     failure — the signal to re-synthesize with more encoding *)
  let p = c513 () in
  match Flow.run ~error_threshold:1e-9 ~efforts:[ 1; 2 ] ~fabric:(fabric ()) ~config:small_config p with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check_bool "not met" false o.Flow.met_threshold;
      check_int "all attempts recorded" 2 (List.length o.Flow.attempts);
      (* error probabilities are sane *)
      List.iter
        (fun (a : Flow.attempt) ->
          check_bool "error in (0,1)" true (a.Flow.error_probability > 0.0 && a.Flow.error_probability < 1.0))
        o.Flow.attempts

let test_flow_optimizes_first () =
  (* a program with a cancellable pair: the flow's synthesis step removes it *)
  let src = "QUBIT a\nQUBIT b\nH a\nH a\nC-X a,b\n" in
  let p = match Qasm.Parser.parse src with Ok p -> p | Error e -> Alcotest.fail e in
  match Flow.run ~error_threshold:0.9 ~efforts:[ 1 ] ~fabric:(fabric ()) ~config:small_config p with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check_int "two gates removed" 2 o.Flow.gates_removed;
      check_int "one gate mapped" 1 (Qasm.Program.gate_count o.Flow.program)

(* --------------------------------------------------------------- Report *)

let test_report_improvement () =
  check_float "improvement" 25.0 (Report.improvement_pct ~quale:400.0 ~qspr:300.0)

let test_report_tables_render () =
  let cell = { Report.latency = 634.0; cpu_ms = 546.0; runs = 88 } in
  let t1 =
    Report.render_table1 [ { Report.circuit = "[[5,1,3]]"; mvfb_25 = cell; mc_25 = cell; mvfb_100 = cell; mc_100 = cell } ]
  in
  check_bool "table1 nonempty" true (String.length t1 > 0);
  let t2 =
    Report.render_table2 [ { Report.circuit = "[[5,1,3]]"; baseline = 510.0; quale = 832.0; qspr = 634.0 } ]
  in
  check_bool "table2 nonempty" true (String.length t2 > 0);
  let csv = Report.csv_table2 [ { Report.circuit = "x"; baseline = 1.0; quale = 2.0; qspr = 1.5 } ] in
  check_bool "csv has header and row" true (List.length (String.split_on_char '\n' csv) >= 3)

(* -------------------------------------------------------------- Pins *)

(* Every search strategy that reports a placement-search outcome, on two
   small codes at the paper's seed: latency bits, run and evaluation
   counts, each attempt (stage, seed, latency bits or error) and the
   certificate digest.  A refactor of the placers must keep these bit for
   bit. *)
let search_pins =
  let prescreen = Config.with_prescreen (Some 2) in
  let cap = Config.with_budget { Config.wall_s = None; max_evals = Some 2; deadline = None } in
  [
    ("mc", Mapper.Monte_carlo, Fun.id);
    ("sa", Mapper.Annealing, Fun.id);
    ("portfolio", Mapper.Portfolio, Fun.id);
    ("robust", Mapper.Robust, Fun.id);
    ("mvfb+prescreen", Mapper.Mvfb, prescreen);
    ("mc+prescreen", Mapper.Monte_carlo, prescreen);
    ("mc+cap", Mapper.Monte_carlo, cap);
    ("sa+cap", Mapper.Annealing, cap);
  ]

let render_solution ctx (s : Mapper.solution) =
  let bits f = Printf.sprintf "0x%LxL" (Int64.bits_of_float f) in
  let attempt (a : Mapper.attempt) =
    Printf.sprintf "%s@%d=%s" a.Mapper.stage a.Mapper.seed
      (match a.Mapper.outcome with Ok l -> bits l | Error e -> Mapper.error_to_string e)
  in
  Printf.sprintf "%s runs %d evals %d%s [%s] digest %016Lx" (bits s.Mapper.latency)
    s.Mapper.placement_runs s.Mapper.engine_evals
    (if s.Mapper.degraded then " degraded" else "")
    (String.concat "; " (List.map attempt s.Mapper.attempts))
    (Analysis.Certify.of_solution ctx s).Analysis.Certify.digest

let search_pinned =
  [
    "[[5,1,3]] mc: 0x4086a00000000000L runs 4 evals 4 [mc@2012=0x4086a00000000000L] digest a47cac75f9971341";
    "[[5,1,3]] sa: 0x4089280000000000L runs 4 evals 4 [sa@2012=0x4089280000000000L] digest 69ebefcde10fb7d9";
    "[[5,1,3]] portfolio: 0x4086100000000000L runs 31 evals 31 [portfolio:mvfb@2012=0x4086100000000000L; portfolio:mc@2012=0x4086a00000000000L; portfolio:sa@2012=0x4089280000000000L; portfolio:delta-sa-0@2012=0x4086600000000000L; portfolio:delta-sa-1@2012=0x4087880000000000L] digest 0d4258a2732792aa";
    "[[5,1,3]] robust: 0x4086100000000000L runs 19 evals 19 [mvfb@2012=0x4086100000000000L] digest 0d4258a2732792aa";
    "[[5,1,3]] mvfb+prescreen: 0x4086a00000000000L runs 8 evals 8 [mvfb@2012=0x4086a00000000000L] digest a47cac75f9971341";
    "[[5,1,3]] mc+prescreen: 0x4086a00000000000L runs 4 evals 2 [mc@2012=0x4086a00000000000L] digest a47cac75f9971341";
    "[[5,1,3]] mc+cap: 0x4086a00000000000L runs 4 evals 2 degraded [mc@2012=0x4086a00000000000L] digest a47cac75f9971341";
    "[[5,1,3]] sa+cap: 0x4089280000000000L runs 2 evals 2 degraded [sa@2012=0x4089280000000000L] digest 69ebefcde10fb7d9";
    "[[7,1,3]] mc: 0x4086600000000000L runs 4 evals 4 [mc@2012=0x4086600000000000L] digest 2bfbe962c36935f2";
    "[[7,1,3]] sa: 0x4088100000000000L runs 4 evals 4 [sa@2012=0x4088100000000000L] digest 870fb556edd02770";
    "[[7,1,3]] portfolio: 0x4085380000000000L runs 38 evals 38 [portfolio:mvfb@2012=0x4085380000000000L; portfolio:mc@2012=0x4086600000000000L; portfolio:sa@2012=0x4088100000000000L; portfolio:delta-sa-0@2012=0x4086a00000000000L; portfolio:delta-sa-1@2012=0x4088e80000000000L] digest a963cf19714ad05e";
    "[[7,1,3]] robust: 0x4085380000000000L runs 24 evals 24 [mvfb@2012=0x4085380000000000L] digest a963cf19714ad05e";
    "[[7,1,3]] mvfb+prescreen: 0x4085380000000000L runs 12 evals 12 [mvfb@2012=0x4085380000000000L] digest a963cf19714ad05e";
    "[[7,1,3]] mc+prescreen: 0x4086600000000000L runs 4 evals 2 [mc@2012=0x4086600000000000L] digest 2bfbe962c36935f2";
    "[[7,1,3]] mc+cap: 0x4086600000000000L runs 4 evals 2 degraded [mc@2012=0x4086600000000000L] digest 2bfbe962c36935f2";
    "[[7,1,3]] sa+cap: 0x4088100000000000L runs 2 evals 2 degraded [sa@2012=0x4088100000000000L] digest 870fb556edd02770";
  ]

let test_search_pins () =
  let got =
    List.concat_map
      (fun circuit ->
        let p = List.assoc circuit (Circuits.Qecc.all ()) in
        let config =
          Config.(Config.default |> with_seed 2012 |> with_m 4 |> with_sa_moves 2000)
        in
        let ctx = ctx_of ~config p in
        List.map
          (fun (name, strategy, adjust) ->
            let ctx = Mapper.with_search adjust ctx in
            match Mapper.map strategy ctx with
            | Error e -> Printf.sprintf "%s %s: %s" circuit name (Mapper.error_to_string e)
            | Ok s -> Printf.sprintf "%s %s: %s" circuit name (render_solution ctx s))
          search_pins)
      [ "[[5,1,3]]"; "[[7,1,3]]" ]
  in
  Alcotest.(check (list string)) "search outcomes" search_pinned got

let () =
  Alcotest.run "qspr"
    [
      ( "config",
        [
          Alcotest.test_case "paper defaults" `Quick test_config_default_is_paper;
          Alcotest.test_case "guards" `Quick test_config_guards;
          Alcotest.test_case "of_env" `Quick test_config_of_env;
          Alcotest.test_case "with_search" `Quick test_with_search;
        ] );
      ( "mapper",
        [
          Alcotest.test_case "oversized program rejected" `Quick test_create_rejects_oversized_program;
          Alcotest.test_case "ideal latency" `Quick test_ideal_latency_513;
          Alcotest.test_case "center flow" `Quick test_center_flow;
          Alcotest.test_case "mvfb beats center" `Quick test_mvfb_beats_or_equals_center;
          Alcotest.test_case "monte carlo flow" `Quick test_monte_carlo_flow;
          Alcotest.test_case "winning trace validates" `Quick test_solution_trace_validates;
          Alcotest.test_case "reversed backward trace validates" `Quick
            test_backward_trace_reversed_validates;
          Alcotest.test_case "backward requires unitary" `Quick test_run_backward_requires_unitary;
          Alcotest.test_case "deterministic" `Quick test_mapper_deterministic;
        ] );
      ( "quale",
        [
          Alcotest.test_case "slower than QSPR" `Quick test_quale_slower_than_qspr;
          Alcotest.test_case "trace validates" `Quick test_quale_trace_validates;
        ] );
      ("pins", [ Alcotest.test_case "search outcomes at seed 2012" `Quick test_search_pins ]);
      ("sweep", [ Alcotest.test_case "ordering on all six circuits" `Slow test_ordering_all_circuits ]);
      ( "wave",
        [
          Alcotest.test_case "maps benchmarks" `Quick test_wave_maps_all_benchmarks;
          Alcotest.test_case "slower than event-driven" `Quick test_wave_slower_than_event_driven;
          Alcotest.test_case "sublevels disjoint" `Quick test_wave_sublevels_disjoint;
        ] );
      ( "flow",
        [
          Alcotest.test_case "meets loose threshold" `Quick test_flow_meets_loose_threshold;
          Alcotest.test_case "escalates then reports" `Quick test_flow_escalates_then_reports;
          Alcotest.test_case "optimizes first" `Quick test_flow_optimizes_first;
        ] );
      ( "report",
        [
          Alcotest.test_case "improvement" `Quick test_report_improvement;
          Alcotest.test_case "tables render" `Quick test_report_tables_render;
        ] );
    ]
