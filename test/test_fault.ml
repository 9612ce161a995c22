(* Tests for the fault-injection subsystem: deterministic sampling, fabric
   degradation (including trap cascades), timing deration, typed mapper
   failures on degraded fabrics, livelock budgets, campaign determinism
   across job counts, and certification against faulted resources. *)

module Coord = Ion_util.Coord
module F = Analysis.Finding

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let parse_program src =
  match Qasm.Parser.parse src with Ok p -> p | Error e -> Alcotest.failf "parse: %s" e

let parse_layout src =
  match Fabric.Layout.parse src with Ok l -> l | Error e -> Alcotest.failf "layout: %s" e

let component_of lay =
  match Fabric.Component.extract lay with
  | Ok c -> c
  | Error e -> Alcotest.failf "extract: %s" e

let bell = "QUBIT a\nQUBIT b\nC-X a,b\n"

(* ------------------------------------------------------------- sampling *)

let test_sample_deterministic () =
  let comp = component_of (Fabric.Layout.small_tile ()) in
  let a = Fault.sample ~seed:7 ~index:3 ~n:5 comp in
  let b = Fault.sample ~seed:7 ~index:3 ~n:5 comp in
  check_bool "same (seed, index) -> same set" true (a = b);
  check_int "exactly n faults" 5 (List.length a);
  let c = Fault.sample ~seed:7 ~index:4 ~n:5 comp in
  check_bool "different index -> different set" true (a <> c)

let test_sample_without_replacement_and_clamped () =
  let comp = component_of (Fabric.Layout.small_tile ()) in
  let nj = Array.length (Fabric.Component.junctions comp) in
  let ns = Array.length (Fabric.Component.segments comp) in
  let nt = Array.length (Fabric.Component.traps comp) in
  let all = Fault.sample ~seed:1 ~index:0 ~n:10_000 comp in
  check_int "clamped to resource count" (nj + ns + nt) (List.length all);
  check_int "no duplicates" (List.length all) (List.length (List.sort_uniq compare all));
  check_int "n = 0 draws nothing" 0 (List.length (Fault.sample ~seed:1 ~index:0 ~n:0 comp));
  Alcotest.check_raises "negative n" (Invalid_argument "Fault.sample: negative fault count")
    (fun () -> ignore (Fault.sample ~seed:1 ~index:0 ~n:(-1) comp))

(* ----------------------------------------------------------- degradation *)

let trap_count lay = Fabric.Layout.count lay (Fabric.Cell.equal Fabric.Cell.Trap)

let test_apply_blanks_and_reparses () =
  let lay = Fabric.Layout.small_tile () in
  match Fault.apply lay [ Fault.Disabled_trap 0 ] with
  | Error e -> Alcotest.failf "apply: %s" e
  | Ok { layout = degraded; faulted_cells; cascaded_traps } ->
      check_int "one trap withdrawn" (trap_count lay - 1) (trap_count degraded);
      check_int "one cell blanked" 1 (List.length faulted_cells);
      check_int "no cascade" 0 cascaded_traps;
      (* the degraded fabric still satisfies every parser invariant *)
      ignore (component_of degraded)

let test_apply_cascades_orphaned_trap () =
  (* the trap's only tap is the single-cell channel between the junctions;
     blocking that channel must withdraw the trap too *)
  let lay = parse_layout "J-J\n T \n" in
  match Fault.apply lay [ Fault.Blocked_channel 0 ] with
  | Error e -> Alcotest.failf "apply: %s" e
  | Ok { layout = degraded; faulted_cells; cascaded_traps } ->
      check_int "trap cascaded away" 1 cascaded_traps;
      check_int "no traps left" 0 (trap_count degraded);
      check_int "channel cell + trap cell" 2 (List.length faulted_cells)

let test_apply_slow_faults_leave_layout () =
  let lay = Fabric.Layout.small_tile () in
  match Fault.apply lay [ Fault.Slow { op = Fault.Move; factor = 2.0 } ] with
  | Error e -> Alcotest.failf "apply: %s" e
  | Ok { layout = degraded; faulted_cells; cascaded_traps } ->
      check_bool "layout untouched" true (Fabric.Layout.equal lay degraded);
      check_int "no cells blanked" 0 (List.length faulted_cells);
      check_int "no cascade" 0 cascaded_traps

let test_degrade_timing () =
  let tm = Router.Timing.paper in
  let d =
    Fault.degrade_timing tm
      [
        Fault.Slow { op = Fault.Move; factor = 2.0 };
        Fault.Slow { op = Fault.Move; factor = 3.0 };
        Fault.Slow { op = Fault.Gate2; factor = 1.5 };
        Fault.Dead_junction 0;
      ]
  in
  check_float "move factors compose" (tm.Router.Timing.t_move *. 6.0) d.Router.Timing.t_move;
  check_float "gate2 derated" (tm.Router.Timing.t_gate2 *. 1.5) d.Router.Timing.t_gate2;
  check_float "turn untouched" tm.Router.Timing.t_turn d.Router.Timing.t_turn;
  check_float "gate1 untouched" tm.Router.Timing.t_gate1 d.Router.Timing.t_gate1;
  Alcotest.check_raises "factor below 1"
    (Invalid_argument "Fault.degrade_timing: slow-down factor below 1") (fun () ->
      ignore (Fault.degrade_timing tm [ Fault.Slow { op = Fault.Turn; factor = 0.5 } ]))

(* --------------------------------------------------- typed mapper failures *)

(* six one-trap islands: context creation succeeds (capacity is fine) and
   the annealer's 3*num_qubits candidate pool fits, but every placement puts
   the bell pair on distinct islands — a two-qubit gate can never bring its
   operands together *)
let disconnected () =
  parse_layout "J-JT\n\nJ-JT\n\nJ-JT\n\nJ-JT\n\nJ-JT\n\nJ-JT\n"

let expect_deadlock label = function
  | Error (Qspr.Mapper.Deadlock { stuck }) ->
      check_bool (label ^ ": stuck ions counted") true (stuck >= 1)
  | Error e -> Alcotest.failf "%s: expected Deadlock, got %s" label (Qspr.Mapper.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: mapped a disconnected fabric" label

let test_mappers_fail_typed_on_disconnected () =
  let config = Qspr.Config.(default |> with_m 2) in
  match Qspr.Mapper.create ~fabric:(disconnected ()) ~config (parse_program bell) with
  | Error e -> Alcotest.failf "create: %s" e
  | Ok ctx ->
      expect_deadlock "center" (Qspr.Mapper.map_center ctx);
      expect_deadlock "mvfb" (Qspr.Mapper.map_mvfb ctx);
      expect_deadlock "mc" (Qspr.Mapper.map_monte_carlo ~runs:2 ctx);
      expect_deadlock "sa" (Qspr.Mapper.map_annealing ~evaluations:2 ctx)

let test_robust_cascade_exhausts_budget () =
  let config = Qspr.Config.(default |> with_m 2) in
  match Qspr.Mapper.create ~fabric:(disconnected ()) ~config (parse_program bell) with
  | Error e -> Alcotest.failf "create: %s" e
  | Ok ctx -> (
      match Qspr.Mapper.map_robust ctx with
      | Ok _ -> Alcotest.fail "robust cascade mapped a disconnected fabric"
      | Error (Qspr.Mapper.Budget_exhausted { attempts; last }) -> (
          check_int "every cascade stage ran" Qspr.Mapper.default_retry.Qspr.Mapper.max_attempts
            attempts;
          match last with
          | Qspr.Mapper.Deadlock _ -> ()
          | e -> Alcotest.failf "last failure should be Deadlock: %s" (Qspr.Mapper.error_to_string e))
      | Error e -> Alcotest.failf "expected Budget_exhausted: %s" (Qspr.Mapper.error_to_string e))

let test_livelock_reported_typed () =
  (* an absurdly small event budget forces the livelock branch on a healthy
     fabric: routing a 2q gate takes far more than (n+1) events *)
  let lay = Fabric.Layout.small_tile () in
  let graph = Fabric.Graph.build (component_of lay) in
  let tm = Router.Timing.paper in
  let program = parse_program bell in
  let dag = Qasm.Dag.of_program program in
  let prios =
    Scheduler.Priority.compute Scheduler.Priority.qspr_default
      ~delay:(Router.Timing.gate_delay tm) dag
  in
  match
    Simulator.Engine.run ~graph ~timing:tm ~policy:Simulator.Engine.qspr_policy ~dag
      ~priorities:prios ~placement:[| 0; 3 |] ~max_events_factor:1 ()
  with
  | Error (Simulator.Engine.Livelock { events; budget }) ->
      check_bool "budget positive" true (budget >= 1);
      check_bool "events hit the budget" true (events >= budget)
  | Error e -> Alcotest.failf "expected Livelock: %s" (Simulator.Engine.string_of_error e)
  | Ok _ -> Alcotest.fail "expected Livelock, run completed"

(* ------------------------------------------------------------- campaigns *)

(* the junction is a cut vertex, each channel is the only tap of its trap:
   every possible single fault kills the bell pair -- deterministically 0%
   survival at level 1, and dead junctions land in the histogram *)
let bottleneck () = parse_layout "T-J-T\n"

let campaign_exn ?jobs ~seed ~levels ~trials ~fabric program =
  match Fault.campaign ?jobs ~seed ~levels ~trials ~fabric program with
  | Ok r -> r
  | Error e -> Alcotest.failf "campaign: %s" e

let test_campaign_survival_levels () =
  let trials = 6 in
  let r =
    campaign_exn ~seed:4 ~levels:[ 0; 1 ] ~trials ~fabric:(bottleneck ()) (parse_program bell)
  in
  check_int "two levels" 2 (List.length r.Fault.levels);
  let l0 = List.nth r.Fault.levels 0 and l1 = List.nth r.Fault.levels 1 in
  check_int "pristine level survives every trial" trials l0.Fault.survived;
  (match l0.Fault.mean_latency with
  | Some v -> check_float "pristine mean = baseline" r.Fault.baseline_latency v
  | None -> Alcotest.fail "pristine level has no mean latency");
  check_int "every single fault is fatal here" 0 l1.Fault.survived;
  check_bool "fatal level reports no latency" true (l1.Fault.mean_latency = None);
  check_bool "some trial deadlocked on the cut junction" true
    (List.mem_assoc "junction" r.Fault.histogram)

let test_campaign_bit_identical_across_jobs () =
  let run jobs =
    Ion_util.Json.to_string
      (Fault.to_json
         (campaign_exn ~jobs ~seed:11 ~levels:[ 0; 1; 2 ] ~trials:4 ~fabric:(bottleneck ())
            (parse_program bell)))
  in
  Alcotest.(check string) "jobs=1 vs jobs=3" (run 1) (run 3)

(* regression: trials whose degraded fabric is rejected before any mapping
   attempt ([Unmappable], or [Infeasible] when the capacity pre-check
   proves the register no longer fits) must be tallied in the
   first-failing histogram, not silently dropped — every non-surviving
   trial lands under some key *)
let test_campaign_histogram_counts_unmappable () =
  let trials = 6 in
  let r =
    campaign_exn ~seed:4 ~levels:[ 0; 1 ] ~trials ~fabric:(bottleneck ()) (parse_program bell)
  in
  let count_outcomes pred =
    List.fold_left
      (fun acc l ->
        List.fold_left (fun acc t -> if pred t.Fault.outcome then acc + 1 else acc) acc l.Fault.trials)
      0 r.Fault.levels
  in
  let rejected =
    count_outcomes (function Fault.Unmappable _ | Fault.Infeasible _ -> true | _ -> false)
  in
  check_bool "scenario exercises pre-mapping rejections" true (rejected > 0);
  let not_mapped = count_outcomes (function Fault.Mapped _ -> false | _ -> true) in
  let tallied = List.fold_left (fun acc (_, n) -> acc + n) 0 r.Fault.histogram in
  check_int "histogram totals Failed + Unmappable + Infeasible" not_mapped tallied

let test_campaign_rejects_bad_arguments () =
  let fabric = bottleneck () and program = parse_program bell in
  let expect_error label = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: campaign accepted invalid arguments" label
  in
  expect_error "zero trials"
    (Fault.campaign ~seed:1 ~levels:[ 0 ] ~trials:0 ~fabric program);
  expect_error "no levels" (Fault.campaign ~seed:1 ~levels:[] ~trials:1 ~fabric program);
  expect_error "negative level"
    (Fault.campaign ~seed:1 ~levels:[ -1 ] ~trials:1 ~fabric program)

(* ---------------------------------------------- certification vs. faults *)

let kinds fs = List.filter_map F.kind fs

let test_certify_rejects_faulted_resources () =
  let lay = Fabric.Layout.small_tile () in
  let ctx =
    match Qspr.Mapper.create ~fabric:lay (parse_program bell) with
    | Ok c -> c
    | Error e -> Alcotest.failf "create: %s" e
  in
  (* center placement puts the pair on distinct traps, forcing tap-channel
     moves into the trace (MVFB would converge to a co-located, move-free
     solution here) *)
  let sol =
    match Qspr.Mapper.map_center ctx with
    | Ok s -> s
    | Error e -> Alcotest.failf "center: %s" (Qspr.Mapper.error_to_string e)
  in
  let config = Qspr.Mapper.config ctx in
  let policy = config.Qspr.Config.qspr_policy in
  let certify ~faulted =
    Analysis.Certify.check ~component:(Qspr.Mapper.component ctx) ~timing:config.Qspr.Config.timing
      ~channel_capacity:policy.Simulator.Engine.channel_capacity
      ~junction_capacity:policy.Simulator.Engine.junction_capacity
      ~dag:(Qspr.Mapper.dag ctx) ~initial_placement:sol.Qspr.Mapper.initial_placement
      ~final_placement:sol.Qspr.Mapper.final_placement ~faulted
      ~claimed_latency:sol.Qspr.Mapper.latency sol.Qspr.Mapper.trace
  in
  check_bool "clean certificate without faults" true (certify ~faulted:[]).Analysis.Certify.valid;
  (* every distinct cell the trace touches, by resource kind *)
  let touched = Hashtbl.create 16 in
  List.iter
    (fun cmd ->
      match cmd with
      | Router.Micro.Move { from_; to_; _ } ->
          Hashtbl.replace touched from_ ();
          Hashtbl.replace touched to_ ()
      | Router.Micro.Turn { at; _ } -> Hashtbl.replace touched at ()
      | Router.Micro.Gate_start { trap; _ } -> Hashtbl.replace touched trap ()
      | _ -> ())
    sol.Qspr.Mapper.trace;
  check_bool "trace touches some cells" true (Hashtbl.length touched > 0);
  let reject_faulting label pred =
    match
      Hashtbl.fold
        (fun c () acc ->
          match acc with Some _ -> acc | None -> if pred (Fabric.Layout.get lay c) then Some c else None)
        touched None
    with
    | None -> Alcotest.failf "%s: trace touches no such cell" label
    | Some c ->
        let cert = certify ~faulted:[ c ] in
        check_bool (label ^ " invalidates the certificate") false cert.Analysis.Certify.valid;
        check_bool (label ^ " flagged as faulted-resource") true
          (List.mem "faulted-resource" (kinds cert.Analysis.Certify.findings))
  in
  reject_faulting "faulted trap" (Fabric.Cell.equal Fabric.Cell.Trap);
  reject_faulting "faulted channel" (function Fabric.Cell.Channel _ -> true | _ -> false);
  (* a withdrawn cell the trace never visits must not invalidate it *)
  let unused = ref None in
  Fabric.Layout.iter lay (fun c cell ->
      if !unused = None && Fabric.Cell.is_walkable cell && not (Hashtbl.mem touched c) then
        unused := Some c);
  match !unused with
  | None -> () (* tiny fabric fully covered; nothing to check *)
  | Some c ->
      check_bool "unvisited faulted cell stays certified" true
        (certify ~faulted:[ c ]).Analysis.Certify.valid

let () =
  Alcotest.run "fault"
    [
      ( "sample",
        [
          Alcotest.test_case "deterministic" `Quick test_sample_deterministic;
          Alcotest.test_case "without replacement, clamped" `Quick
            test_sample_without_replacement_and_clamped;
        ] );
      ( "apply",
        [
          Alcotest.test_case "blanks and re-parses" `Quick test_apply_blanks_and_reparses;
          Alcotest.test_case "cascades orphaned traps" `Quick test_apply_cascades_orphaned_trap;
          Alcotest.test_case "slow faults leave the layout" `Quick
            test_apply_slow_faults_leave_layout;
          Alcotest.test_case "timing deration" `Quick test_degrade_timing;
        ] );
      ( "typed failures",
        [
          Alcotest.test_case "all mappers deadlock typed" `Quick
            test_mappers_fail_typed_on_disconnected;
          Alcotest.test_case "robust cascade exhausts budget" `Quick
            test_robust_cascade_exhausts_budget;
          Alcotest.test_case "livelock typed" `Quick test_livelock_reported_typed;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "survival levels" `Quick test_campaign_survival_levels;
          Alcotest.test_case "bit-identical across jobs" `Quick
            test_campaign_bit_identical_across_jobs;
          Alcotest.test_case "histogram counts unmappable" `Quick
            test_campaign_histogram_counts_unmappable;
          Alcotest.test_case "rejects bad arguments" `Quick test_campaign_rejects_bad_arguments;
        ] );
      ( "certify",
        [
          Alcotest.test_case "rejects faulted resources" `Quick
            test_certify_rejects_faulted_resources;
        ] );
    ]
