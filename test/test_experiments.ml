(* Integration tests of the experiment harness: every table/figure generator
   runs (reduced budgets) and its output satisfies the paper's qualitative
   claims — these are the tests that would catch a regression breaking the
   reproduction itself. *)

open Qspr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_circuits () =
  List.filter (fun (n, _) -> n = "[[5,1,3]]" || n = "[[9,1,3]]") (Circuits.Qecc.all ())

let test_table1_shape_and_claims () =
  let rows = Experiments.table1 ~m_small:2 ~m_large:3 ~circuits:(small_circuits ()) () in
  check_int "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Report.table1_row) ->
      (* equal-budget protocol *)
      check_int "m_small budget equal" r.Report.mvfb_25.Report.runs r.Report.mc_25.Report.runs;
      check_int "m_large budget equal" r.Report.mvfb_100.Report.runs r.Report.mc_100.Report.runs;
      check_bool "m_large uses more runs" true (r.Report.mvfb_100.Report.runs > r.Report.mvfb_25.Report.runs))
    rows

(* Table 1 at the `experiments --fast` budgets (m 3 and 6), all six
   circuits: every MVFB and Monte-Carlo cell's latency bits and run count,
   so both halves of the paper's equal-budget comparison are pinned bit for
   bit. *)
let render_table1_row (r : Report.table1_row) =
  let cell (c : Report.placer_cell) =
    Printf.sprintf "0x%LxL/%d" (Int64.bits_of_float c.Report.latency) c.Report.runs
  in
  Printf.sprintf "%s mvfb3 %s mc3 %s mvfb6 %s mc6 %s" r.Report.circuit (cell r.Report.mvfb_25)
    (cell r.Report.mc_25) (cell r.Report.mvfb_100) (cell r.Report.mc_100)

let table1_pinned =
  [
    "[[5,1,3]] mvfb3 0x4086a00000000000L/13 mc3 0x4086a00000000000L/13 mvfb6 0x4086100000000000L/30 mc6 0x4086200000000000L/30";
    "[[7,1,3]] mvfb3 0x4085380000000000L/18 mc3 0x4086200000000000L/18 mvfb6 0x4085380000000000L/36 mc6 0x4085480000000000L/36";
    "[[9,1,3]] mvfb3 0x4093400000000000L/16 mc3 0x4092e80000000000L/16 mvfb6 0x4091c80000000000L/36 mc6 0x4092d00000000000L/36";
    "[[14,8,3]] mvfb3 0x40a88a0000000000L/26 mc3 0x40a9380000000000L/26 mvfb6 0x40a8520000000000L/50 mc6 0x40a9380000000000L/50";
    "[[19,1,7]] mvfb3 0x40a8ba0000000000L/21 mc3 0x40a9840000000000L/21 mvfb6 0x40a83e0000000000L/44 mc6 0x40a9740000000000L/44";
    "[[23,1,7]] mvfb3 0x409c480000000000L/20 mc3 0x409de00000000000L/20 mvfb6 0x409c480000000000L/36 mc6 0x409d540000000000L/36";
  ]

let test_table1_pins () =
  let rows = Experiments.table1 ~m_small:3 ~m_large:6 () in
  Alcotest.(check (list string)) "table1 cells" table1_pinned (List.map render_table1_row rows)

let test_table2_claims () =
  let rows = Experiments.table2 ~m:2 ~circuits:(small_circuits ()) () in
  List.iter
    (fun (r : Report.table2_row) ->
      check_bool (r.Report.circuit ^ ": baseline <= qspr") true (r.Report.baseline <= r.Report.qspr +. 1e-9);
      check_bool (r.Report.circuit ^ ": qspr < quale") true (r.Report.qspr < r.Report.quale);
      (match Circuits.Qecc.expected_baseline_us r.Report.circuit with
      | Some b -> check_bool "baseline exact" true (Float.abs (b -. r.Report.baseline) < 1e-9)
      | None -> Alcotest.fail "missing paper baseline");
      ())
    rows;
  (* rendering works *)
  check_bool "renders" true (String.length (Report.render_table2 rows) > 0);
  check_bool "paper comparison renders" true (String.length (Experiments.table2_with_paper rows) > 0)

let test_sensitivity_monotone_budget () =
  let rows = Experiments.sensitivity ~ms:[ 1; 3 ] ~circuit:"[[5,1,3]]" () in
  match rows with
  | [ (1, l1, r1, _); (3, l3, r3, _) ] ->
      check_bool "more seeds, more runs" true (r3 > r1);
      check_bool "more seeds never hurt" true (l3 <= l1 +. 1e-9)
  | _ -> Alcotest.fail "row shape"

let test_figures_render () =
  check_bool "fig23" true (String.length (Experiments.fig23 ()) > 100);
  let fig4 = Experiments.fig4 () in
  check_bool "fig4 contains junctions" true (String.contains fig4 'J');
  let fig5 = Experiments.fig5 () in
  check_bool "fig5 mentions turns" true (String.length fig5 > 100)

let test_priority_study_rows () =
  let rows = Experiments.priority_study ~circuit:"[[5,1,3]]" () in
  check_int "five policies" 5 (List.length rows);
  List.iter (fun (_, l) -> check_bool "positive latency" true (l > 0.0)) rows

let test_ablation_study_rows () =
  let rows = Experiments.ablation_study () in
  check_int "five policies" 5 (List.length rows);
  let ctx = Experiments.context (List.assoc "[[9,1,3]]" (Circuits.Qecc.all ())) in
  let placement = Placer.Center.place (Mapper.component ctx) ~num_qubits:9 in
  match (Mapper.run_forward ctx placement, List.assoc_opt "full_qspr" rows) with
  | Ok r, Some full ->
      Alcotest.(check int64) "full_qspr = run_forward, bit for bit"
        (Int64.bits_of_float r.Simulator.Engine.latency)
        (Int64.bits_of_float full)
  | Error e, _ -> Alcotest.fail (Simulator.Engine.string_of_error e)
  | _, None -> Alcotest.fail "no full_qspr row"

let test_noise_study_qspr_wins () =
  let rows = Experiments.noise_study ~m:2 ~circuits:(small_circuits ()) () in
  List.iter
    (fun (name, p_qspr, p_quale) ->
      check_bool (name ^ ": probabilities sane") true
        (p_qspr > 0.0 && p_qspr <= 1.0 && p_quale > 0.0 && p_quale <= 1.0);
      check_bool (name ^ ": qspr at least as reliable") true (p_qspr >= p_quale -. 1e-9))
    rows

let test_congestion_maps_render () =
  let qspr, quale = Experiments.congestion_maps ~circuit:"[[5,1,3]]" () in
  check_bool "qspr map has traffic" true (String.contains qspr '1' || String.contains qspr '2');
  check_bool "quale map nonempty" true (String.length quale > 0)

let test_empirical_noise_agrees () =
  let rows = Experiments.empirical_noise ~circuit:"[[5,1,3]]" ~trials:150 () in
  check_int "two mappings" 2 (List.length rows);
  List.iter
    (fun (label, _, analytic, measured) ->
      check_bool
        (Printf.sprintf "%s: measured %.3f within 0.15 of analytic %.3f" label measured analytic)
        true
        (Float.abs (measured -. analytic) < 0.15))
    rows

let test_scaling_study_runs () =
  let rows = Experiments.scaling_study ~cases:[ (4, 10); (6, 20) ] () in
  check_int "two cases" 2 (List.length rows);
  List.iter (fun (_, _, latency, cpu) ->
      check_bool "positive" true (latency > 0.0 && cpu >= 0.0))
    rows

let test_fabric_study_rows () =
  let rows = Experiments.fabric_study ~circuit:"[[5,1,3]]" () in
  check_bool "several rows" true (List.length rows >= 6);
  List.iter (fun (_, l) -> check_bool "positive latency" true (l > 0.0)) rows

let test_wave_study_rows () =
  let rows = Experiments.wave_study ~m:2 ~circuits:(small_circuits ()) () in
  List.iter
    (fun (name, wave, qspr, _over) ->
      check_bool (name ^ ": wave slower than event-driven QSPR") true (wave > qspr))
    rows

let test_basis_study_rows () =
  let rows = Experiments.basis_study ~m:2 ~circuits:(small_circuits ()) () in
  List.iter
    (fun (name, native, cx) ->
      check_bool (name ^ ": cx-basis no faster") true (cx >= native -. 1e-9))
    rows

let test_objective_study () =
  let rows = Experiments.objective_study ~circuit:"[[5,1,3]]" ~samples:8 () in
  match rows with
  | [ (_, lat_l, err_l); (_, lat_e, err_e) ] ->
      (* the error-optimal winner cannot have higher error than the
         latency-optimal one, and vice versa for latency *)
      check_bool "error winner has minimal error" true (err_e <= err_l +. 1e-12);
      check_bool "latency winner has minimal latency" true (lat_l <= lat_e +. 1e-9)
  | _ -> Alcotest.fail "expected two rows"

(* Golden regression pins: the engine is fully deterministic, so the
   center-placement QSPR run and the QUALE run of every benchmark have exact
   expected latencies.  If an intentional model change moves these, update
   them alongside EXPERIMENTS.md — an unintentional move is a regression. *)
let golden = 
  [
    ("[[5,1,3]]", 805.0, 874.0);
    ("[[7,1,3]]", 751.0, 868.0);
    ("[[9,1,3]]", 1289.0, 1479.0);
    ("[[14,8,3]]", 3233.0, 3942.0);
    ("[[19,1,7]]", 3378.0, 4206.0);
    ("[[23,1,7]]", 1859.0, 2313.0);
  ]

let test_golden_latencies () =
  let fabric = Fabric.Layout.quale_45x85 () in
  List.iter
    (fun (name, center_expect, quale_expect) ->
      let p = List.assoc name (Circuits.Qecc.all ()) in
      let ctx = match Mapper.create ~fabric p with Ok c -> c | Error e -> Alcotest.fail e in
      let center =
        match Mapper.map Center ctx with
        | Ok s -> s.Mapper.latency
        | Error e -> Alcotest.fail (Mapper.error_to_string e)
      in
      let quale =
        match Mapper.map Quale ctx with
        | Ok s -> s.Mapper.latency
        | Error e -> Alcotest.fail (Mapper.error_to_string e)
      in
      Alcotest.(check (float 1e-6)) (name ^ " center") center_expect center;
      Alcotest.(check (float 1e-6)) (name ^ " quale") quale_expect quale)
    golden

let () =
  Alcotest.run "experiments"
    [
      ( "experiments",
        [
          Alcotest.test_case "table1 shape and claims" `Slow test_table1_shape_and_claims;
          Alcotest.test_case "table1 pins at --fast budgets" `Quick test_table1_pins;
          Alcotest.test_case "table2 claims" `Slow test_table2_claims;
          Alcotest.test_case "sensitivity" `Quick test_sensitivity_monotone_budget;
          Alcotest.test_case "figures render" `Quick test_figures_render;
          Alcotest.test_case "priority study" `Quick test_priority_study_rows;
          Alcotest.test_case "ablation study" `Quick test_ablation_study_rows;
          Alcotest.test_case "noise study" `Slow test_noise_study_qspr_wins;
          Alcotest.test_case "congestion maps" `Quick test_congestion_maps_render;
          Alcotest.test_case "empirical noise" `Slow test_empirical_noise_agrees;
          Alcotest.test_case "scaling study" `Quick test_scaling_study_runs;
          Alcotest.test_case "fabric study" `Slow test_fabric_study_rows;
          Alcotest.test_case "wave study" `Slow test_wave_study_rows;
          Alcotest.test_case "objective study" `Quick test_objective_study;
          Alcotest.test_case "basis study" `Slow test_basis_study_rows;
          Alcotest.test_case "golden latencies" `Slow test_golden_latencies;
        ] );
    ]
