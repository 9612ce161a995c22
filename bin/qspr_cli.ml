(* qspr — command-line front end of the mapper.

   Subcommands:
     map       map a QASM file (or builtin benchmark) onto an ion-trap fabric
     serve     mapping-as-a-service: line-delimited JSON jobs in, results out
     lint      static-analysis report over a circuit and/or fabric
     fabric    render a fabric and its component statistics
     circuits  list or print the builtin QECC benchmark circuits *)

open Cmdliner

let load_fabric = function
  | None -> Ok (Fabric.Layout.quale_45x85 ())
  | Some path -> Result.bind (Ion_util.File.read path) Fabric.Layout.parse

(* A builtin circuit or a QASM file of either dialect; errors keep their
   file:line:col so lint and audit findings can point at the offending
   token. *)
let load_program ~circuit ~qasm =
  match (circuit, qasm) with
  | Some _, Some _ -> Error (Qasm.Parser.error_of_string "give --circuit or --qasm, not both")
  | None, None ->
      Error (Qasm.Parser.error_of_string "give --circuit NAME (see `qspr circuits`) or --qasm FILE")
  | Some name, None -> (
      match List.assoc_opt name (Circuits.Qecc.all ()) with
      | Some p -> Ok p
      | None ->
          Error
            (Qasm.Parser.error_of_string
               (Printf.sprintf "unknown circuit %s; known: %s" name
                  (String.concat ", " (List.map fst (Circuits.Qecc.all ()))))))
  | None, Some path -> Qasm.Parser.parse_file_located path

(* [load_program] for subcommands that only print the error *)
let load_program_msg ~circuit ~qasm =
  Result.map_error Qasm.Parser.error_to_string (load_program ~circuit ~qasm)

(* The QSPR_* environment overrides (Config.of_env) on top of a base
   config: the library never reads the environment, the tools do. *)
let env_config base = Qspr.Config.of_env Sys.getenv_opt base

(* The fabric and base config of a mapping run: a PMD file supplies both,
   otherwise the ASCII fabric (or the paper's grid) with the paper's
   constants. *)
let load_target ~fabric_path ~pmd_path =
  let ( let* ) = Result.bind in
  let* fabric, config =
    match pmd_path with
    | Some path ->
        if fabric_path <> None then Error "give --fabric or --pmd, not both"
        else
          let* pmd = Qspr.Pmd.parse_file path in
          Ok (pmd.Qspr.Pmd.layout, Qspr.Pmd.config pmd)
    | None ->
        let* fabric = load_fabric fabric_path in
        Ok (fabric, Qspr.Config.default)
  in
  Ok (fabric, env_config config)

(* ------------------------------------------------------------------ map *)

(* The fabric findings `qspr lint` reports, at the config's channel capacity. *)
let fabric_lint ~config ?num_qubits fabric =
  Analysis.Fabric_check.check ?num_qubits
    ~channel_capacity:config.Qspr.Config.qspr_policy.Simulator.Engine.channel_capacity fabric

(* Surface fabric lint on every mapping run (the findings are cheap and the
   failure modes they catch — disconnected islands, starved capacity — waste
   a whole placement search otherwise): warnings and hints go to stderr,
   errors abort before any search runs. *)
let gate_on_fabric_lint ~program ~config fabric =
  let findings = fabric_lint ~config ~num_qubits:(Qasm.Program.num_qubits program) fabric in
  List.iter (fun f -> Format.eprintf "%a@." Analysis.Finding.pp f) findings;
  if Analysis.Finding.is_clean findings then Ok ()
  else Error "fabric fails lint (errors above; `qspr lint` shows the full report)"

let do_map circuit qasm fabric_path pmd_path (placer, strategy) m sa_moves seed
    prescreen_k budget_s budget_evals show_trace certify json_out =
  let ( let* ) = Result.bind in
  let result =
    let* program = load_program_msg ~circuit ~qasm in
    let* fabric, base_config = load_target ~fabric_path ~pmd_path in
    let* () = gate_on_fabric_lint ~program ~config:base_config fabric in
    (* explicit flags win; otherwise keep the config's (env-derived) budget *)
    let base_budget = base_config.Qspr.Config.budget in
    let budget =
      {
        Qspr.Config.wall_s =
          (match budget_s with Some _ -> budget_s | None -> base_budget.Qspr.Config.wall_s);
        max_evals =
          (match budget_evals with
          | Some _ -> budget_evals
          | None -> base_budget.Qspr.Config.max_evals);
        deadline = base_budget.Qspr.Config.deadline;
      }
    in
    let config =
      Qspr.Config.(
        base_config |> with_m m |> with_seed seed |> with_budget budget
        |> (match sa_moves with Some n -> with_sa_moves n | None -> Fun.id)
        |> match prescreen_k with
           | Some 0 -> with_prescreen None
           | Some k -> with_prescreen (Some k)
           | None -> Fun.id)
    in
    let* ctx = Qspr.Mapper.create ~fabric ~config program in
    let* sol = Result.map_error Qspr.Mapper.error_to_string (Qspr.Mapper.map strategy ctx) in
    let baseline = Qspr.Mapper.ideal_latency ctx in
    Printf.printf "circuit           : %s (%d qubits, %d gates)\n" program.Qasm.Program.name
      (Qasm.Program.num_qubits program) (Qasm.Program.gate_count program);
    Printf.printf "placer            : %s\n" placer;
    Printf.printf "ideal baseline    : %.1f us\n" baseline;
    Printf.printf "execution latency : %.1f us (%.1f us over baseline)\n" sol.Qspr.Mapper.latency
      (sol.Qspr.Mapper.latency -. baseline);
    Printf.printf "placement runs    : %d (%d engine evals, %.0f ms CPU)\n"
      sol.Qspr.Mapper.placement_runs sol.Qspr.Mapper.engine_evals
      (sol.Qspr.Mapper.cpu_time_s *. 1000.0);
    Printf.printf "winning direction : %s\n"
      (match sol.Qspr.Mapper.direction with
      | Placer.Mvfb.Forward -> "forward"
      | Placer.Mvfb.Backward -> "backward (trace reversed)");
    Printf.printf "trace             : %d moves, %d turns, %d gates\n"
      (Simulator.Trace.move_count sol.Qspr.Mapper.trace)
      (Simulator.Trace.turn_count sol.Qspr.Mapper.trace)
      (Simulator.Trace.gate_count sol.Qspr.Mapper.trace);
    if sol.Qspr.Mapper.degraded then
      Printf.printf "degraded          : yes (budget cut the search or earlier attempts failed)\n";
    if List.length sol.Qspr.Mapper.attempts > 1 then begin
      Printf.printf "attempts          :\n";
      List.iter
        (fun (a : Qspr.Mapper.attempt) ->
          match a.Qspr.Mapper.outcome with
          | Ok l -> Printf.printf "  %-14s seed=%d  ok, %.1f us\n" a.Qspr.Mapper.stage a.Qspr.Mapper.seed l
          | Error e ->
              Printf.printf "  %-14s seed=%d  failed: %s\n" a.Qspr.Mapper.stage a.Qspr.Mapper.seed
                (Qspr.Mapper.error_to_string e))
        sol.Qspr.Mapper.attempts
    end;
    let* () =
      if not certify then Ok ()
      else begin
        let policy =
          if strategy = Qspr.Mapper.Quale then (Qspr.Mapper.config ctx).Qspr.Config.quale_policy
          else (Qspr.Mapper.config ctx).Qspr.Config.qspr_policy
        in
        let cert = Analysis.Certify.of_solution ~policy ctx sol in
        Format.printf "%a@." Analysis.Certify.pp cert;
        if cert.Analysis.Certify.valid then Ok ()
        else Error "trace certification failed: the reported solution is not physically executable"
      end
    in
    if show_trace then begin
      print_newline ();
      print_string (Simulator.Trace.to_string sol.Qspr.Mapper.trace)
    end;
    (match json_out with
    | None -> ()
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Qspr.Export.solution_string ~program sol));
        Printf.printf "json              : written to %s\n" path);
    Ok ()
  in
  match result with
  | Ok () -> 0
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1

let circuit_arg =
  Arg.(value & opt (some string) None & info [ "circuit" ] ~docv:"NAME" ~doc:"Builtin benchmark circuit.")

let qasm_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "qasm" ] ~docv:"FILE"
        ~doc:"QASM input file: the paper's dialect or OpenQASM 2.0, told apart by its first word.")

let fabric_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fabric" ] ~docv:"FILE" ~doc:"ASCII fabric file (default: the paper's 45x85 grid).")

let pmd_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pmd" ] ~docv:"FILE" ~doc:"Physical machine description file (fabric + timing + capacities).")

(* parsed to (name, strategy) so reports can print the name as given *)
let placer_arg =
  let named = List.map (fun (name, s) -> (name, (name, s))) Qspr.Mapper.strategies in
  Arg.(
    value
    & opt (enum named) ("mvfb", Qspr.Mapper.Mvfb)
    & info [ "placer" ] ~docv:"P"
        ~doc:
          ("Placement strategy (Mapper.strategy): " ^ Arg.doc_alts_enum Qspr.Mapper.strategies
         ^ "."))

let budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for the placement search; when it runs out the search returns \
           best-so-far marked degraded (default: QSPR_BUDGET, else off).")

let budget_evals_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-evals" ] ~docv:"N"
        ~doc:
          "Deterministic evaluation budget: at most $(docv) full engine evaluations per search \
           (default: QSPR_BUDGET_EVALS, else off).")

let prescreen_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "prescreen" ] ~docv:"K"
        ~doc:
          "Estimator pre-screening: score every candidate placement with the fast latency \
           estimator and fully route only the $(docv) best (0 disables; default: \
           QSPR_PRESCREEN, else off).")

let m_arg = Arg.(value & opt int 25 & info [ "m"; "seeds" ] ~docv:"M" ~doc:"MVFB seeds / MC runs (-m or --seeds).")

let sa_moves_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sa-moves" ] ~docv:"N"
        ~doc:
          "Delta-annealing move budget per stream: proposals scored by the incremental \
           estimator, with only improved incumbents routed (default: QSPR_SA_MOVES, else \
           20000).  Used by the portfolio placer's delta-SA streams.")
let seed_arg = Arg.(value & opt int 2012 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")
let trace_arg = Arg.(value & flag & info [ "trace" ] ~doc:"Print the micro-command trace.")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Replay the trace through the independent certifier (shares no code with the engine) \
           and fail if the claimed solution is not physically executable.")

let json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write the full result (trace included) as JSON.")

let map_cmd =
  Cmd.v
    (Cmd.info "map" ~doc:"Schedule, place and route a circuit onto an ion-trap fabric")
    Term.(
      const do_map $ circuit_arg $ qasm_arg $ fabric_arg $ pmd_arg $ placer_arg $ m_arg
      $ sa_moves_arg $ seed_arg $ prescreen_arg $ budget_arg $ budget_evals_arg
      $ trace_arg $ certify_arg $ json_arg)

(* --------------------------------------------------------------- fabric *)

let do_fabric fabric_path lint qubits =
  match load_fabric fabric_path with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
  | Ok lay -> (
      match Fabric.Component.extract lay with
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          1
      | Ok comp ->
          Printf.printf "%dx%d fabric: %d junctions, %d channel segments, %d traps\n%s\n\n%s"
            (Fabric.Layout.height lay) (Fabric.Layout.width lay)
            (Array.length (Fabric.Component.junctions comp))
            (Array.length (Fabric.Component.segments comp))
            (Array.length (Fabric.Component.traps comp))
            Fabric.Render.legend (Fabric.Render.fabric lay);
          if lint then begin
            let findings =
              fabric_lint ~config:(env_config Qspr.Config.default) ?num_qubits:qubits lay
            in
            if findings = [] then print_endline "\nlint: clean"
            else begin
              print_newline ();
              List.iter (fun f -> Format.printf "lint %a@." Analysis.Finding.pp f) findings
            end;
            if Analysis.Finding.is_clean findings then 0 else 1
          end
          else 0)

let fabric_cmd =
  Cmd.v
    (Cmd.info "fabric" ~doc:"Render a fabric, its component statistics, and optional lint findings")
    Term.(
      const do_fabric $ fabric_arg
      $ Arg.(value & flag & info [ "lint" ] ~doc:"Run structural diagnostics.")
      $ Arg.(value & opt (some int) None & info [ "qubits" ] ~docv:"N" ~doc:"Intended qubit count for capacity lint."))

(* ----------------------------------------------------------------- flow *)

let do_flow circuit qasm fabric_path threshold =
  let ( let* ) = Result.bind in
  let result =
    let* program = load_program_msg ~circuit ~qasm in
    let* fabric = load_fabric fabric_path in
    let* o =
      Qspr.Flow.run ~error_threshold:threshold ~fabric ~config:(env_config Qspr.Config.default)
        program
    in
    Printf.printf "synthesis optimization: %d gate(s) removed, %d remain\n" o.Qspr.Flow.gates_removed
      (Qasm.Program.gate_count o.Qspr.Flow.program);
    List.iter
      (fun (a : Qspr.Flow.attempt) ->
        Printf.printf "  m=%-4d latency %8.1f us   estimated error %.4f\n" a.Qspr.Flow.m
          a.Qspr.Flow.latency_us a.Qspr.Flow.error_probability)
      o.Qspr.Flow.attempts;
    Printf.printf "error threshold %.4f %s\n" threshold
      (if o.Qspr.Flow.met_threshold then "met" else "NOT met: re-synthesize with more encoding");
    Ok ()
  in
  match result with
  | Ok () -> 0
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1

let flow_cmd =
  Cmd.v
    (Cmd.info "flow" ~doc:"Run the full CAD loop: optimize, map with escalating effort, check the error threshold")
    Term.(
      const do_flow $ circuit_arg $ qasm_arg $ fabric_arg
      $ Arg.(value & opt float 0.05 & info [ "threshold" ] ~docv:"E" ~doc:"Error-probability threshold."))

(* -------------------------------------------------------------- metrics *)

let do_metrics circuit qasm =
  match load_program ~circuit ~qasm with
  | Error e ->
      Printf.eprintf "error: %s\n" (Qasm.Parser.error_to_string e);
      1
  | Ok p ->
      Format.printf "%a@." Qasm.Metrics.pp (Qasm.Metrics.of_program p);
      0

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics" ~doc:"Static circuit metrics (depth, parallelism, interactions)")
    Term.(const do_metrics $ circuit_arg $ qasm_arg)

(* ---------------------------------------------------------- gantt/heatmap *)

let map_for_viz circuit qasm fabric_path m seed =
  let ( let* ) = Result.bind in
  let* program = load_program_msg ~circuit ~qasm in
  let* fabric = load_fabric fabric_path in
  let config = Qspr.Config.(env_config default |> with_m m |> with_seed seed) in
  let* ctx = Qspr.Mapper.create ~fabric ~config program in
  let* sol = Result.map_error Qspr.Mapper.error_to_string (Qspr.Mapper.map Mvfb ctx) in
  Ok (program, ctx, sol)

let do_gantt circuit qasm fabric_path m seed =
  match map_for_viz circuit qasm fabric_path m seed with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
  | Ok (program, _, sol) ->
      print_string
        (Simulator.Gantt.render ~num_qubits:(Qasm.Program.num_qubits program) sol.Qspr.Mapper.trace);
      0

let gantt_cmd =
  Cmd.v
    (Cmd.info "gantt" ~doc:"Per-qubit activity chart of a mapped circuit")
    Term.(const do_gantt $ circuit_arg $ qasm_arg $ fabric_arg $ m_arg $ seed_arg)

let do_heatmap circuit qasm fabric_path m seed =
  match map_for_viz circuit qasm fabric_path m seed with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
  | Ok (_, ctx, sol) ->
      print_string (Simulator.Heatmap.render (Qspr.Mapper.component ctx) sol.Qspr.Mapper.trace);
      0

let heatmap_cmd =
  Cmd.v
    (Cmd.info "heatmap" ~doc:"Channel-utilization heatmap of a mapped circuit")
    Term.(const do_heatmap $ circuit_arg $ qasm_arg $ fabric_arg $ m_arg $ seed_arg)

(* ----------------------------------------------------------------- lint *)

let do_lint circuit qasm fabric_path pmd_path json_out =
  let prog_given = circuit <> None || qasm <> None in
  let fabric_given = fabric_path <> None || pmd_path <> None in
  if (not prog_given) && not fabric_given then begin
    Printf.eprintf
      "error: nothing to lint; give --circuit/--qasm and/or --fabric/--pmd\n";
    2
  end
  else if fabric_path <> None && pmd_path <> None then begin
    Printf.eprintf "error: give --fabric or --pmd, not both\n";
    2
  end
  else begin
    let program =
      if prog_given then Some (load_program ~circuit ~qasm) else None
    in
    let fabric, config =
      match pmd_path with
      | Some path -> (
          match Qspr.Pmd.parse_file path with
          | Ok pmd -> (Some (Ok pmd.Qspr.Pmd.layout), env_config (Qspr.Pmd.config pmd))
          | Error e -> (Some (Error e), env_config Qspr.Config.default))
      | None ->
          ( (if fabric_given then Some (load_fabric fabric_path) else None),
            env_config Qspr.Config.default )
    in
    let findings = Analysis.Registry.lint ?program ?fabric ~config () in
    if json_out then
      print_endline (Ion_util.Json.to_string (Analysis.Finding.report_json findings))
    else print_string (Analysis.Registry.render findings);
    Analysis.Finding.exit_code findings
  end

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static-analysis passes on a circuit, a fabric, or both; exit 2 on errors, 1 \
          on warnings, 0 otherwise")
    Term.(
      const do_lint $ circuit_arg $ qasm_arg $ fabric_arg $ pmd_arg
      $ Arg.(value & flag & info [ "json" ] ~doc:"Print the findings report as JSON."))

(* ---------------------------------------------------------------- audit *)

(* Map, then audit: recompute the admissible lower-bound catalog for the
   winning solution, cross-check the solution's own claim, optionally prove
   the instance optimal with the exact branch-and-bound, and exit like
   `qspr lint` (2 on errors, 1 on warnings, 0 otherwise — the gap itself is
   a hint).  Infeasible instances are refused with a typed finding before
   any placement search runs. *)
let do_audit circuit qasm fabric_path pmd_path (placer, strategy) m seed exact node_budget
    json_out =
  let emit_findings findings =
    if json_out then
      print_endline (Ion_util.Json.to_string (Analysis.Finding.report_json findings))
    else print_string (Analysis.Registry.render findings);
    Analysis.Finding.exit_code findings
  in
  match load_program ~circuit ~qasm with
  | Error e -> emit_findings (Analysis.Program_check.check_result (Error e))
  | Ok program -> (
      match load_target ~fabric_path ~pmd_path with
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          2
      | Ok (fabric, base_config) -> (
          let config = Qspr.Config.(base_config |> with_m m |> with_seed seed) in
          let dag = Qasm.Dag.of_program program in
          let num_traps =
            match Fabric.Component.extract fabric with
            | Ok comp -> Array.length (Fabric.Component.traps comp)
            | Error _ -> 0
          in
          match Estimator.Bound.infeasibility ~num_traps dag with
          | Some inf -> emit_findings [ Analysis.Bound.infeasibility_finding inf ]
          | None -> (
              let result =
                let ( let* ) = Result.bind in
                let* ctx = Qspr.Mapper.create ~fabric ~config program in
                let* sol =
                  Result.map_error Qspr.Mapper.error_to_string (Qspr.Mapper.map strategy ctx)
                in
                Ok (Analysis.Bound.audit ~exact ?node_budget ctx sol)
              in
              match result with
              | Error e ->
                  Printf.eprintf "error: %s\n" e;
                  2
              | Ok report ->
                  if json_out then
                    print_endline
                      (Ion_util.Json.to_string
                         (Analysis.Bound.to_json ~circuit:program.Qasm.Program.name ~placer
                            report))
                  else begin
                    Printf.printf "circuit            %s (%d qubits, %d gates), placer %s\n"
                      program.Qasm.Program.name
                      (Qasm.Program.num_qubits program)
                      (Qasm.Program.gate_count program)
                      placer;
                    print_string (Analysis.Bound.render report)
                  end;
                  Analysis.Finding.exit_code report.Analysis.Bound.findings)))

let audit_cmd =
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Map a circuit, then certify an admissible latency lower bound and report the \
          optimality gap.  --exact additionally runs the small-instance exact optimizer and \
          can prove the mapping optimal.  Exit 2 on errors (bound violations, infeasible \
          instances), 1 on warnings, 0 otherwise")
    Term.(
      const do_audit $ circuit_arg $ qasm_arg $ fabric_arg $ pmd_arg $ placer_arg
      $ m_arg $ seed_arg
      $ Arg.(
          value & flag
          & info [ "exact" ]
              ~doc:
                "Run the branch-and-bound exact optimizer (small instances only; skipped with a \
                 hint when the instance exceeds the guards).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "node-budget" ] ~docv:"N"
              ~doc:"Search-node budget for --exact (default 400000).")
      $ Arg.(value & flag & info [ "json" ] ~doc:"Print the qspr-audit/1 report as JSON."))

(* ------------------------------------------------------------- estimate *)

(* Greedy delta-SA micro-benchmark: propose/score/commit-or-undo [n] moves
   on the incremental model and report moves/sec next to the full
   estimator's evals/sec — the quick hardware calibration behind choosing
   --sa-moves. *)
let delta_microbench ctx ~num_qubits ~placement n =
  let model = Qspr.Mapper.estimator_model ctx in
  let comp = Qspr.Mapper.component ctx in
  let num_traps = Array.length (Fabric.Component.traps comp) in
  let pool = Array.of_list (Placer.Center.center_traps comp (min (3 * num_qubits) num_traps)) in
  let delta = Estimator.Delta.create model placement in
  let t0 = Unix.gettimeofday () in
  let accepted =
    Placer.Annealing.greedy_delta ~rng:(Ion_util.Rng.create 2012) ~pool delta ~moves:n
  in
  let dt = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  (* size the full-estimate reference so its window is long enough to time
     reliably even on the smallest circuits *)
  let k = max 1 (min 2000 n) in
  let t1 = Unix.gettimeofday () in
  for _ = 1 to k do
    ignore (Estimator.Model.estimate model placement)
  done;
  let dt_full = Float.max 1e-9 (Unix.gettimeofday () -. t1) in
  let moves_s = float_of_int n /. dt and evals_s = float_of_int k /. dt_full in
  Printf.printf "delta moves       : %d in %.1f ms (%.0f moves/s, %d accepted, estimate %.1f us)\n"
    n (dt *. 1000.0) moves_s accepted (Estimator.Delta.latency delta);
  Printf.printf "full estimates    : %d in %.1f ms (%.0f evals/s) — delta is %.0fx faster per proposal\n"
    k (dt_full *. 1000.0) evals_s (moves_s /. evals_s)

let do_estimate circuit qasm fabric_path moves measure certify =
  let ( let* ) = Result.bind in
  let result =
    let* program = load_program_msg ~circuit ~qasm in
    let* fabric = load_fabric fabric_path in
    let* ctx = Qspr.Mapper.create ~fabric program in
    let placement =
      Placer.Center.place (Qspr.Mapper.component ctx)
        ~num_qubits:(Qasm.Program.num_qubits program)
    in
    let t0 = Sys.time () in
    let est = Qspr.Mapper.estimate ctx placement in
    let t_build = Sys.time () -. t0 in
    Printf.printf "circuit           : %s (%d qubits, %d gates)\n" program.Qasm.Program.name
      (Qasm.Program.num_qubits program) (Qasm.Program.gate_count program);
    Printf.printf "placement         : center\n";
    Printf.printf "estimated latency : %.1f us (model built + estimated in %.0f ms)\n" est
      (t_build *. 1000.0);
    let* () =
      match moves with
      | None -> Ok ()
      | Some n when n < 1 -> Error "--moves must be at least 1"
      | Some n ->
          Ok (delta_microbench ctx ~num_qubits:(Qasm.Program.num_qubits program) ~placement n)
    in
    if not (measure || certify) then Ok ()
    else
      let* r =
        Result.map_error Simulator.Engine.string_of_error (Qspr.Mapper.run_forward ctx placement)
      in
      let meas = r.Simulator.Engine.latency in
      Printf.printf "measured latency  : %.1f us (full schedule-and-route)\n" meas;
      Printf.printf "relative error    : %+.1f%%\n" (100.0 *. (est -. meas) /. meas);
      (* the measured run is the reference the estimator is judged against —
         always certify it, and fail loudly if the engine's own trace does
         not replay *)
      let config = Qspr.Mapper.config ctx in
      let policy = config.Qspr.Config.qspr_policy in
      let cert =
        Analysis.Certify.check
          ~component:(Qspr.Mapper.component ctx)
          ~timing:config.Qspr.Config.timing
          ~channel_capacity:policy.Simulator.Engine.channel_capacity
          ~junction_capacity:policy.Simulator.Engine.junction_capacity
          ~dag:(Qspr.Mapper.dag ctx) ~initial_placement:placement
          ~final_placement:r.Simulator.Engine.final_placement ~claimed_latency:meas
          r.Simulator.Engine.trace
      in
      Format.printf "%a@." Analysis.Certify.pp cert;
      if cert.Analysis.Certify.valid then Ok ()
      else Error "the measured reference trace failed certification: do not trust this estimate"
  in
  match result with
  | Ok () -> 0
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1

let estimate_cmd =
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Fast latency estimate of a circuit's center placement, optionally vs the measured engine")
    Term.(
      const do_estimate $ circuit_arg $ qasm_arg $ fabric_arg
      $ Arg.(
          value
          & opt (some int) None
          & info [ "moves" ] ~docv:"N"
              ~doc:
                "Micro-benchmark the incremental delta estimator: run $(docv) greedy delta-SA \
                 moves and print moves/sec next to the full estimator's evals/sec.")
      $ Arg.(value & flag & info [ "measure" ] ~doc:"Also run the full engine and report the relative error.")
      $ Arg.(value & flag & info [ "certify" ] ~doc:"Certify the measured reference trace (implies --measure)."))

(* ------------------------------------------------------------- circuits *)

let do_circuits show =
  match show with
  | None ->
      Printf.printf "builtin QECC benchmark circuits (paper Section V.A):\n";
      List.iter
        (fun (name, p) ->
          Printf.printf "  %-12s %2d qubits, %3d gates, ideal baseline %6.0f us\n" name
            (Qasm.Program.num_qubits p) (Qasm.Program.gate_count p)
            (Qspr.Baseline.latency Router.Timing.paper p))
        (Circuits.Qecc.all ());
      0
  | Some name -> (
      match List.assoc_opt name (Circuits.Qecc.all ()) with
      | Some p ->
          print_string (Qasm.Printer.to_string p);
          0
      | None ->
          Printf.eprintf "unknown circuit %s\n" name;
          1)

let circuits_cmd =
  Cmd.v
    (Cmd.info "circuits" ~doc:"List or print the builtin benchmark circuits")
    Term.(
      const do_circuits
      $ Arg.(value & opt (some string) None & info [ "show" ] ~docv:"NAME" ~doc:"Print one circuit as QASM."))

(* ---------------------------------------------------------------- serve *)

let request_rejection msg =
  {
    Service.Protocol.job_id = "?";
    verdict =
      Service.Protocol.Rejected { stage = "request"; reason = msg; quote_us = None; findings = [] };
    cache = None;
    cpu_s = 0.0;
    cached = false;
  }

let do_serve batch jobs deterministic max_pending max_quote_us max_evals shed_start max_fabrics
    response_cache response_ttl_s journal =
  let limits : Service.Scheduler.limits =
    {
      jobs;
      max_pending;
      max_quote_us;
      max_evals;
      shed_start;
      max_fabrics;
      response_cache;
      response_ttl_s;
    }
  in
  let t = Service.Scheduler.create ~limits ~config:(env_config Qspr.Config.default) () in
  match batch with
  | Some path -> (
      match In_channel.with_open_text path In_channel.input_lines with
      | exception Sys_error e ->
          Printf.eprintf "error: %s\n" e;
          1
      | lines ->
          let lines = Array.of_list (List.filter (fun l -> String.trim l <> "") lines) in
          let decoded = Array.map Service.Protocol.job_of_line lines in
          (* the journal's join key: the canonical encoding for well-formed
             requests (so reformatted-but-identical lines still match), the
             raw line for malformed ones *)
          let keys =
            Array.map2
              (fun line d ->
                match d with
                | Ok job -> Service.Journal.key (Service.Protocol.job_to_line job)
                | Error _ -> Service.Journal.key line)
              lines decoded
          in
          let n = Array.length lines in
          let replayed =
            match journal with Some p -> Service.Journal.replay p | None -> []
          in
          let mismatch =
            List.length replayed > n
            || List.exists2 (fun (e : Service.Journal.entry) k -> not (Int64.equal e.key k))
                 replayed
                 (Array.to_list (Array.sub keys 0 (List.length replayed)))
          in
          if mismatch then begin
            Printf.eprintf
              "error: journal %s does not match this batch input; refusing to resume\n"
              (Option.get journal);
            1
          end
          else begin
            (* replay the journaled prefix byte-for-byte, then resume at the
               first unjournaled request with the ladder slot counter the
               interrupted run had reached *)
            List.iter
              (fun (e : Service.Journal.entry) -> print_endline e.response_line)
              replayed;
            let replay_n = List.length replayed in
            let first_slot =
              List.length
                (List.filter (fun (e : Service.Journal.entry) -> Service.Journal.consumed_slot e.response) replayed)
            in
            let jnl = Option.map Service.Journal.open_append journal in
            let all = ref (List.rev_map (fun (e : Service.Journal.entry) -> e.response) replayed) in
            (* responses materialize out of input order (malformed lines
               instantly, mapped jobs per wave); emit and journal strictly in
               input order so a later resume replays a positional prefix *)
            let out : (Service.Protocol.response * string) option array =
              Array.make (n - replay_n) None
            in
            let next = ref 0 in
            let flush_ready () =
              while
                !next < Array.length out
                &&
                match out.(!next) with
                | Some (r, line) ->
                    print_endline line;
                    Option.iter
                      (fun j ->
                        Service.Journal.append j ~key:keys.(replay_n + !next) ~response_line:line)
                      jnl;
                    all := r :: !all;
                    true
                | None -> false
              do
                incr next
              done
            in
            let place i r =
              out.(i) <- Some (r, Service.Protocol.response_to_line ~deterministic r)
            in
            let job_positions = ref [] in
            let fresh_jobs = ref [] in
            for i = n - 1 downto replay_n do
              match decoded.(i) with
              | Error msg -> place (i - replay_n) (request_rejection msg)
              | Ok job ->
                  job_positions := (i - replay_n) :: !job_positions;
                  fresh_jobs := job :: !fresh_jobs
            done;
            let positions = ref !job_positions in
            flush_ready ();
            (* one run_batch over every well-formed request, so distance
               tables and warm route snapshots are shared across the file *)
            ignore
              (Service.Scheduler.run_batch ~first_slot
                 ~on_result:(fun _job r ->
                   (match !positions with
                   | p :: rest ->
                       positions := rest;
                       place p r
                   | [] -> assert false);
                   flush_ready ())
                 t !fresh_jobs);
            flush_ready ();
            Option.iter Service.Journal.close jnl;
            Service.Protocol.exit_code (List.rev !all)
          end)
  | None ->
      (* daemon mode: one request line in, one response line out, flushed
         per response so a pipe peer can interleave *)
      let rec loop () =
        match In_channel.input_line stdin with
        | None -> ()
        | Some line ->
            if String.trim line <> "" then begin
              print_endline (Service.Scheduler.handle_line ~deterministic t line);
              flush stdout
            end;
            loop ()
      in
      loop ();
      let s : Service.Scheduler.stats = Service.Scheduler.stats t in
      if s.rejected > 0 then 2 else if s.failed > 0 then 1 else 0

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Mapping as a service: read qspr-job/2 request lines (stdin, or a file with --batch), \
          admit each through the deadline, lint, quote and degradation-ladder tiers, map the \
          admitted ones over shared warm caches, and write one qspr-result/3 response line per \
          request.  Under overload the ladder degrades service (prescreened, budgeted, \
          estimate-only) before refusing; --journal makes an interrupted --batch resumable with \
          byte-identical replay.  Exits 2 if any request was rejected, 1 if any mapping failed, \
          0 otherwise.")
    Term.(
      const do_serve
      $ Arg.(
          value
          & opt (some string) None
          & info [ "batch" ] ~docv:"FILE"
              ~doc:
                "Read every request line from $(docv) and run them as one batch (distance \
                 tables and warm route caches amortized across the file) instead of serving \
                 stdin line by line.")
      $ Arg.(
          value & opt int 1
          & info [ "jobs" ] ~docv:"J"
              ~doc:"Jobs mapped concurrently (responses are bit-identical at any value).")
      $ Arg.(
          value & flag
          & info [ "deterministic" ]
              ~doc:
                "Omit the cache and cpu_s observability sections, leaving responses that are a \
                 pure function of their requests (the form CI compares against golden files).")
      $ Arg.(
          value & opt int 64
          & info [ "max-pending" ] ~docv:"N" ~doc:"Admitted jobs per submission before queue-full.")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "max-quote-us" ] ~docv:"US"
              ~doc:"Reject jobs whose estimator quote exceeds $(docv) microseconds.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "max-evals" ] ~docv:"N"
              ~doc:
                "Service-wide engine-evaluation ceiling: jobs requesting more are rejected, \
                 jobs requesting none inherit it as their budget.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "shed-start" ] ~docv:"SLOT"
              ~doc:
                "Admission slot where the degradation ladder begins shedding (default: half of \
                 --max-pending).")
      $ Arg.(
          value & opt int 8
          & info [ "max-fabrics" ] ~docv:"N"
              ~doc:
                "Warm-state registry capacity: beyond $(docv) distinct fabrics the \
                 least-recently-served one's shared tables are evicted.")
      $ Arg.(
          value & opt int 256
          & info [ "response-cache" ] ~docv:"N"
              ~doc:
                "Response cache capacity: identical repeated requests are answered from cache \
                 (0 disables).")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "response-ttl-s" ] ~docv:"S"
              ~doc:"Expire cached responses after $(docv) seconds on the service clock.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "journal" ] ~docv:"FILE"
              ~doc:
                "Crash-only request journal for --batch: append every response line to $(docv) \
                 before emitting the next; rerunning the same batch replays the journaled \
                 prefix byte-for-byte and resumes mapping at the first unjournaled request."))

(* --------------------------------------------------------------- faults *)

let do_faults circuit qasm fabric_path seed levels_s trials jobs json_out =
  let ( let* ) = Result.bind in
  let result =
    let* program = load_program_msg ~circuit ~qasm in
    let* fabric = load_fabric fabric_path in
    let* levels =
      try Ok (List.map (fun s -> int_of_string (String.trim s)) (String.split_on_char ',' levels_s))
      with Failure _ -> Error (Printf.sprintf "bad --levels %s (expected e.g. 0,1,2,4)" levels_s)
    in
    let* report =
      Fault.campaign ~jobs ~config:(env_config Qspr.Config.default) ~seed ~levels ~trials ~fabric
        program
    in
    Format.printf "@[<v>%a@]@." Fault.pp report;
    (match json_out with
    | None -> ()
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Ion_util.Json.to_string (Fault.to_json report)));
        Printf.printf "json written to %s\n" path);
    Ok ()
  in
  match result with
  | Ok () -> 0
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1

let faults_cmd =
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run a fault-injection survivability campaign: sample fault sets at each level, degrade \
          the fabric, and map the circuit on every surviving fabric through the retry cascade")
    Term.(
      const do_faults $ circuit_arg $ qasm_arg $ fabric_arg $ seed_arg
      $ Arg.(
          value & opt string "0,1,2,4"
          & info [ "levels" ] ~docv:"N,N,..." ~doc:"Comma-separated fault counts to sweep.")
      $ Arg.(value & opt int 5 & info [ "trials" ] ~docv:"T" ~doc:"Sampled fault sets per level.")
      $ Arg.(
          value & opt int 1
          & info [ "jobs" ] ~docv:"J" ~doc:"Trial-level parallelism (bit-identical at any value).")
      $ json_arg)

let () =
  let info = Cmd.info "qspr" ~version:"1.0.0" ~doc:"Latency-minimizing quantum mapper for ion-trap fabrics" in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            map_cmd;
            serve_cmd;
            lint_cmd;
            audit_cmd;
            fabric_cmd;
            circuits_cmd;
            metrics_cmd;
            gantt_cmd;
            heatmap_cmd;
            flow_cmd;
            estimate_cmd;
            faults_cmd;
          ]))
