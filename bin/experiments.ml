(* Experiment driver: regenerates every table and figure of the paper's
   evaluation (Section V).

   Usage:  experiments [table1|table2|sensitivity|fig23|fig4|fig5|all] [--fast]

   --fast shrinks the MVFB seed counts (m) so a full sweep completes in
   seconds; the default reproduces the paper's protocol (m = 25 / 100). *)

let fast = ref false
let json_path = ref None
let certify = ref false

let m_small () = if !fast then 3 else 25
let m_large () = if !fast then 6 else 100

(* The paper's constants with the QSPR_* environment overrides; the
   studies inside the library map with the paper's constants alone. *)
let env_config () = Qspr.Config.of_env Sys.getenv_opt Qspr.Config.default

let line title =
  Printf.printf "\n==== %s ====\n\n%!" title

let write_json name doc =
  match !json_path with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".json") in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Ion_util.Json.to_string doc));
      Printf.printf "\n[json written to %s]\n" path

(* --certify: re-map every Table-1 circuit and replay each trace through the
   independent certifier — a mapper bug that fabricates latencies fails the
   whole experiment run instead of silently entering the table. *)
let certify_table1 () =
  line "Trace certificates (MVFB, Table 1 circuits)";
  let fabric = Fabric.Layout.quale_45x85 () in
  let all_ok = ref true in
  List.iter
    (fun (name, program) ->
      let status =
        match Qspr.Mapper.create ~fabric ~config:(Qspr.Config.with_m (m_small ()) (env_config ())) program with
        | Error e -> Error e
        | Ok ctx -> (
            match Qspr.Mapper.map Mvfb ctx with
            | Error e -> Error (Qspr.Mapper.error_to_string e)
            | Ok sol -> Ok (Analysis.Certify.of_solution ctx sol))
      in
      match status with
      | Error e ->
          all_ok := false;
          Printf.printf "  %-12s mapping failed: %s\n" name e
      | Ok cert ->
          if not cert.Analysis.Certify.valid then all_ok := false;
          Printf.printf "  %-12s %s\n" name (Format.asprintf "%a" Analysis.Certify.pp cert))
    (Circuits.Qecc.all ());
  if not !all_ok then begin
    Printf.eprintf "certification failed: at least one Table-1 trace does not replay\n";
    exit 1
  end

let run_table1 () =
  line "Table 1: MVFB vs Monte-Carlo (equal placement-run budget)";
  let rows =
    Qspr.Experiments.table1 ~m_small:(m_small ()) ~m_large:(m_large ())
      ~jobs:(env_config ()).Qspr.Config.jobs ()
  in
  print_string (Qspr.Report.render_table1 rows);
  Printf.printf "\nCSV:\n%s" (Qspr.Report.csv_table1 rows);
  write_json "table1" (Qspr.Export.table1 rows);
  if !certify then certify_table1 ()

let run_table2 () =
  line "Table 2: Baseline vs QUALE vs QSPR";
  let rows = Qspr.Experiments.table2 ~m:(m_large ()) () in
  print_string (Qspr.Report.render_table2 rows);
  line "Table 2, measured vs paper";
  print_string (Qspr.Experiments.table2_with_paper rows);
  Printf.printf "\nCSV:\n%s" (Qspr.Report.csv_table2 rows);
  write_json "table2" (Qspr.Export.table2 rows)

let run_sensitivity () =
  line "Sensitivity to m (Section IV.A), circuit [[9,1,3]]";
  let ms = if !fast then [ 1; 2; 5 ] else [ 1; 5; 10; 25; 50; 100 ] in
  let rows = Qspr.Experiments.sensitivity ~ms () in
  let header = [ "m"; "MVFB latency (us)"; "MVFB runs"; "MC latency (us, equal runs)" ] in
  let cells =
    List.map
      (fun (m, mvfb, runs, mc) ->
        [ string_of_int m; Qspr.Report.us mvfb; string_of_int runs; Qspr.Report.us mc ])
      rows
  in
  print_string (Ion_util.Ascii_table.render_simple ~header ~rows:cells);
  print_newline ();
  print_string
    (Ion_util.Plot.render
       [
         {
           Ion_util.Plot.label = "MVFB";
           points = List.map (fun (m, l, _, _) -> (float_of_int m, l)) rows;
           glyph = 'v';
         };
         {
           Ion_util.Plot.label = "MC (equal runs)";
           points = List.map (fun (m, _, _, l) -> (float_of_int m, l)) rows;
           glyph = 'c';
         };
       ])

let run_congestion () =
  line "Congestion heatmaps ([[19,1,7]]): QSPR (capacity 2) vs QUALE (capacity 1)";
  let qspr, quale = Qspr.Experiments.congestion_maps () in
  Printf.printf "QSPR mapping:\n%s\nQUALE mapping:\n%s\n" qspr quale

let run_scaling () =
  line "Scaling on random Clifford workloads (MVFB m=3)";
  Printf.printf "  %8s %8s %14s %10s\n" "qubits" "gates" "latency (us)" "cpu (s)";
  List.iter
    (fun (nq, gates, latency, cpu) -> Printf.printf "  %8d %8d %14.0f %10.2f\n" nq gates latency cpu)
    (Qspr.Experiments.scaling_study ())

let run_placers () =
  line "Placer comparison ([[9,1,3]], equal evaluation budgets)";
  Printf.printf "  %-24s %14s %14s\n" "placer" "latency (us)" "evaluations";
  List.iter
    (fun (name, latency, evals) -> Printf.printf "  %-24s %14.0f %14d\n" name latency evals)
    (Qspr.Experiments.placer_comparison ())

let run_fabric_study () =
  line "Fabric-geometry sensitivity ([[9,1,3]], MVFB m=5)";
  List.iter
    (fun (name, latency) -> Printf.printf "  %-42s %8.1f us\n" name latency)
    (Qspr.Experiments.fabric_study ())

let run_optimality () =
  line "Optimality gap ([[5,1,3]], 6 candidate traps)";
  List.iter
    (fun (name, latency) -> Printf.printf "  %-38s %8.1f us\n" name latency)
    (Qspr.Experiments.optimality_study ())

let run_noise () =
  line "Noise study: estimated success probability, QSPR vs QUALE mappings";
  Printf.printf "  %-12s %14s %14s %18s\n" "circuit" "P(ok) QSPR" "P(ok) QUALE" "error reduction";
  List.iter
    (fun (name, p_qspr, p_quale) ->
      let reduction = (p_qspr -. p_quale) /. (1.0 -. p_quale) *. 100.0 in
      Printf.printf "  %-12s %14.4f %14.4f %16.1f%%\n" name p_qspr p_quale reduction)
    (Qspr.Experiments.noise_study ~m:(m_small ()) ())

let run_empirical () =
  line "Empirical noise validation (Monte-Carlo over the mapped trace, [[9,1,3]])";
  Printf.printf "  %-8s %14s %18s %18s\n" "mapping" "latency (us)" "P(ok) analytic" "P(ok) measured";
  List.iter
    (fun (label, latency, analytic, measured) ->
      Printf.printf "  %-8s %14.0f %18.3f %18.3f\n" label latency analytic measured)
    (Qspr.Experiments.empirical_noise ~trials:(if !fast then 100 else 300) ())

let run_noise_sweep () =
  line "Failure rate vs transport-noise scale (Monte-Carlo, [[9,1,3]])";
  let rows = Qspr.Experiments.noise_sweep ~trials:(if !fast then 60 else 200) () in
  Printf.printf "  %8s %16s %16s\n" "scale" "QSPR failure" "QUALE failure";
  List.iter (fun (s, fq, fu) -> Printf.printf "  %8.1f %16.3f %16.3f\n" s fq fu) rows;
  print_newline ();
  print_string
    (Ion_util.Plot.render
       [
         { Ion_util.Plot.label = "QSPR"; points = List.map (fun (s, fq, _) -> (s, fq)) rows; glyph = 'q' };
         { Ion_util.Plot.label = "QUALE"; points = List.map (fun (s, _, fu) -> (s, fu)) rows; glyph = 'u' };
       ])

let run_objective () =
  line "Objective alignment: latency-optimal vs error-optimal placement ([[9,1,3]])";
  Printf.printf "  %-26s %14s %16s\n" "objective" "latency (us)" "error prob";
  List.iter
    (fun (name, latency, error) -> Printf.printf "  %-26s %14.0f %16.4f\n" name latency error)
    (Qspr.Experiments.objective_study ~samples:(if !fast then 12 else 40) ())

let run_wave () =
  line "Wave (phase-synchronous PathFinder) mapping vs the event-driven engine";
  Printf.printf "  %-12s %12s %12s %16s %14s\n" "circuit" "wave (us)" "QSPR (us)" "paper QUALE" "overuses";
  List.iter
    (fun (name, wave, qspr, over) ->
      let pq =
        match Circuits.Qecc.paper_quale_latency_us name with Some v -> Printf.sprintf "%.0f" v | None -> "?"
      in
      Printf.printf "  %-12s %12.0f %12.0f %16s %14d\n" name wave qspr pq over)
    (Qspr.Experiments.wave_study ~m:(if !fast then 2 else 5) ())

let run_basis () =
  line "Gate-basis cost: native controlled-Paulis vs CX-only machines";
  Printf.printf "  %-12s %14s %16s %10s\n" "circuit" "native (us)" "cx-basis (us)" "overhead";
  List.iter
    (fun (name, native, cx) ->
      Printf.printf "  %-12s %14.0f %16.0f %9.1f%%\n" name native cx ((cx -. native) /. native *. 100.0))
    (Qspr.Experiments.basis_study ~m:(if !fast then 2 else 5) ())

let run_eq1 () =
  line "Eq. 1 latency decomposition (T_gate + T_routing + T_congestion)";
  Printf.printf "  %-12s %-8s %12s %12s %14s\n" "circuit" "mapper" "T_gate" "T_routing" "T_congestion";
  List.iter
    (fun (name, qspr, quale) ->
      let p (t : Simulator.Breakdown.totals) tag =
        Printf.printf "  %-12s %-8s %10.0fus %10.0fus %12.0fus\n" name tag
          t.Simulator.Breakdown.gate_us t.Simulator.Breakdown.routing_us
          t.Simulator.Breakdown.congestion_us
      in
      p qspr "QSPR";
      p quale "QUALE")
    (Qspr.Experiments.eq1_breakdown ~m:(if !fast then 2 else 5) ())

let run_estimator () =
  line "Estimator accuracy: fast model vs measured engine (center placements)";
  let rows = Qspr.Experiments.estimator_accuracy () in
  Printf.printf "  %-12s %14s %14s %12s\n" "circuit" "estimated" "measured" "rel error";
  List.iter
    (fun (name, est, meas, rel) ->
      Printf.printf "  %-12s %12.1fus %12.1fus %+11.1f%%\n" name est meas (100.0 *. rel))
    rows;
  let mean_abs =
    List.fold_left (fun acc (_, _, _, rel) -> acc +. Float.abs rel) 0.0 rows
    /. float_of_int (List.length rows)
  in
  Printf.printf "  mean absolute relative error: %.1f%%\n" (100.0 *. mean_abs)

let run_prescreen () =
  line "Pre-screened vs exhaustive Monte-Carlo (runs=25, prescreen_k=5)";
  Printf.printf "  %-12s %16s %18s %8s %8s\n" "circuit" "plain (us/evals)" "prescreened" "speedup" "delta";
  List.iter
    (fun (name, _) ->
      let s = Qspr.Experiments.prescreen_study ~circuit:name () in
      Printf.printf "  %-12s %10.0f / %-3d %12.0f / %-3d %7.1fx %+7.2f%%\n" name
        s.Qspr.Experiments.plain_latency s.Qspr.Experiments.plain_evals
        s.Qspr.Experiments.prescreened_latency s.Qspr.Experiments.prescreened_evals
        (float_of_int s.Qspr.Experiments.plain_evals /. float_of_int s.Qspr.Experiments.prescreened_evals)
        (100.0
        *. (s.Qspr.Experiments.prescreened_latency -. s.Qspr.Experiments.plain_latency)
        /. s.Qspr.Experiments.plain_latency))
    (Circuits.Qecc.all ())

let run_priorities () =
  line "Scheduling-priority ablation (Section III), circuit [[9,1,3]]";
  List.iter
    (fun (name, latency) -> Printf.printf "  %-26s %8.1f us\n" name latency)
    (Qspr.Experiments.priority_study ())

let run_ablation () =
  line "Design-choice ablation ([[9,1,3]], center placement)";
  List.iter
    (fun (name, latency) -> Printf.printf "  %-22s %8.1f us\n" name latency)
    (Qspr.Experiments.ablation_study ())

let run_faults () =
  line "Fault-injection survivability ([[5,1,3]], retry cascade on degraded fabrics)";
  let levels = if !fast then [ 0; 2; 6 ] else [ 0; 2; 6; 12; 24 ] in
  let trials = if !fast then 2 else 5 in
  let config = Qspr.Config.with_m (m_small ()) (env_config ()) in
  match
    Fault.campaign ~config ~seed:2012 ~levels ~trials ~fabric:(Fabric.Layout.quale_45x85 ())
      (Circuits.Qecc.c513 ())
  with
  | Error e ->
      Printf.eprintf "fault campaign failed: %s\n" e;
      exit 1
  | Ok report ->
      Format.printf "@[<v>%a@]@." Fault.pp report;
      write_json "faults" (Fault.to_json report)

let run_gaps () =
  line "Optimality gaps: achieved latency vs certified lower bound (MVFB, Table-1 suite)";
  let rows = Qspr.Experiments.gaps_study ~m:(if !fast then 2 else m_small ()) () in
  Printf.printf "%-12s %12s %12s %15s %8s\n" "circuit" "latency (us)" "bound (us)" "kind" "gap";
  List.iter
    (fun (c, lat, lb, kind, gap) ->
      Printf.printf "%-12s %12.1f %12.1f %15s %7.1f%%\n" c lat lb
        (Estimator.Bound.kind_to_string kind)
        (100.0 *. gap))
    rows;
  write_json "gaps"
    (Ion_util.Json.List
       (List.map
          (fun (c, lat, lb, kind, gap) ->
            Ion_util.Json.Obj
              [
                ("circuit", Ion_util.Json.String c);
                ("latency_us", Ion_util.Json.Float lat);
                ("lower_bound_us", Ion_util.Json.Float lb);
                ("bound_kind", Ion_util.Json.String (Estimator.Bound.kind_to_string kind));
                ("optimality_gap", Ion_util.Json.Float gap);
              ])
          rows))

let run_fig23 () =
  line "Figures 2-3";
  print_string (Qspr.Experiments.fig23 ())

let run_fig4 () =
  line "Figure 4";
  print_string (Qspr.Experiments.fig4 ())

let run_fig5 () =
  line "Figure 5";
  print_string (Qspr.Experiments.fig5 ())

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let commands, flags = List.partition (fun a -> not (String.length a > 2 && String.sub a 0 2 = "--")) args in
  List.iter
    (fun f ->
      if f = "--fast" then fast := true
      else if f = "--certify" then certify := true
      else if String.length f > 7 && String.sub f 0 7 = "--json=" then
        json_path := Some (String.sub f 7 (String.length f - 7))
      else failwith ("unknown flag " ^ f))
    flags;
  let known =
    [
      ("table1", run_table1);
      ("table2", run_table2);
      ("sensitivity", run_sensitivity);
      ("priorities", run_priorities);
      ("ablation", run_ablation);
      ("noise", run_noise);
      ("empirical", run_empirical);
      ("noise-sweep", run_noise_sweep);
      ("eq1", run_eq1);
      ("basis", run_basis);
      ("wave", run_wave);
      ("objective", run_objective);
      ("optimality", run_optimality);
      ("fabric-study", run_fabric_study);
      ("placers", run_placers);
      ("estimator", run_estimator);
      ("prescreen", run_prescreen);
      ("congestion", run_congestion);
      ("faults", run_faults);
      ("scaling", run_scaling);
      ("gaps", run_gaps);
      ("fig23", run_fig23);
      ("fig4", run_fig4);
      ("fig5", run_fig5);
    ]
  in
  let run name =
    match List.assoc_opt name known with
    | Some f -> f ()
    | None ->
        Printf.eprintf "unknown experiment %S; available: %s all\n" name
          (String.concat " " (List.map fst known));
        exit 1
  in
  match commands with
  | [] | [ "all" ] -> List.iter (fun (_, f) -> f ()) known
  | names -> List.iter run names
