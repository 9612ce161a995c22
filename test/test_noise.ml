(* Tests for the noise model: exposure extraction from traces (hand-computed
   scenarios), success-probability estimation, monotonicity in latency, and
   the end-to-end claim that QSPR's lower-latency mappings yield lower
   estimated error than QUALE's. *)

module Coord = Ion_util.Coord
open Router
open Noise

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let xy = Coord.make

(* ---------------------------------------------------------------- Model *)

let test_model_default_valid () =
  let m = Model.default in
  check_bool "t2 positive" true (m.Model.t2_us > 0.0);
  check_bool "2q dominates 1q" true (m.Model.eps_gate2 > m.Model.eps_gate1);
  check_bool "turn dirtier than move" true (m.Model.eps_turn > m.Model.eps_move)

let test_model_guards () =
  (match Model.make ~t2_us:0.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "t2=0 accepted");
  match Model.make ~eps_gate2:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "eps>1 accepted"

(* ------------------------------------------------------------- Exposure *)

(* hand-built trace: q0 moves 2 cells, turns once, then a 2q gate with q1 *)
let hand_trace =
  [
    Micro.Move { qubit = 0; from_ = xy 0 0; to_ = xy 1 0; start = 0.0; finish = 1.0 };
    Micro.Turn { qubit = 0; at = xy 1 0; start = 1.0; finish = 11.0 };
    Micro.Move { qubit = 0; from_ = xy 1 0; to_ = xy 1 1; start = 11.0; finish = 12.0 };
    Micro.Gate_start { instr_id = 0; trap = xy 1 1; qubits = [ 0; 1 ]; time = 12.0 };
    Micro.Gate_end { instr_id = 0; trap = xy 1 1; qubits = [ 0; 1 ]; time = 112.0 };
  ]

let test_exposure_hand_trace () =
  let ex = Exposure.of_trace ~num_qubits:2 hand_trace in
  let e0 = ex.(0) and e1 = ex.(1) in
  check_int "q0 moves" 2 e0.Exposure.moves;
  check_int "q0 turns" 1 e0.Exposure.turns;
  check_int "q0 2q gates" 1 e0.Exposure.gates2;
  check_float "q0 moving time" 2.0 e0.Exposure.moving_us;
  check_float "q0 turning time" 10.0 e0.Exposure.turning_us;
  check_float "q0 gate time" 100.0 e0.Exposure.gate_us;
  (* makespan 112: q0 idle = 112 - 112 = 0 *)
  check_float "q0 idle" 0.0 e0.Exposure.idle_us;
  (* q1 never moves; idle = 112 - 100 = 12 *)
  check_int "q1 moves" 0 e1.Exposure.moves;
  check_float "q1 gate time" 100.0 e1.Exposure.gate_us;
  check_float "q1 idle" 12.0 e1.Exposure.idle_us;
  check_float "totals equal makespan" (Exposure.total_us e0) (Exposure.total_us e1)

let test_exposure_empty_trace () =
  let ex = Exposure.of_trace ~num_qubits:3 [] in
  Array.iter
    (fun e ->
      check_float "all zero" 0.0 (Exposure.busy_us e);
      check_float "no idle (zero makespan)" 0.0 e.Exposure.idle_us)
    ex

let test_exposure_unknown_qubit () =
  match Exposure.of_trace ~num_qubits:1 hand_trace with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "qubit out of range accepted"

(* ------------------------------------------------------------- Estimate *)

let test_estimate_perfect_model () =
  (* with error-free operations and huge t2, success ~ 1 *)
  let m = Model.make ~t1_us:1e15 ~t2_us:1e15 ~eps_move:0.0 ~eps_turn:0.0 ~eps_gate1:0.0 ~eps_gate2:0.0 () in
  let p = Estimate.of_trace m ~num_qubits:2 hand_trace in
  check_bool "success ~ 1" true (p > 0.999999)

let test_estimate_hand_value () =
  (* only gate errors: one 2q gate counted once (two participants x 1/2) *)
  let m = Model.make ~t1_us:1e15 ~t2_us:1e15 ~eps_move:0.0 ~eps_turn:0.0 ~eps_gate1:0.0 ~eps_gate2:0.1 () in
  let p = Estimate.of_trace m ~num_qubits:2 hand_trace in
  check_float "one 2q gate at eps=0.1" 0.9 p

let test_estimate_move_errors () =
  let m = Model.make ~t1_us:1e15 ~t2_us:1e15 ~eps_move:0.01 ~eps_turn:0.0 ~eps_gate1:0.0 ~eps_gate2:0.0 () in
  let p = Estimate.of_trace m ~num_qubits:2 hand_trace in
  (* two moves *)
  check_float "two moves at eps=0.01" (0.99 *. 0.99) p

let test_estimate_dephasing () =
  let m = Model.make ~t1_us:1e15 ~t2_us:100.0 ~eps_move:0.0 ~eps_turn:0.0 ~eps_gate1:0.0 ~eps_gate2:0.0 () in
  let p = Estimate.of_trace m ~num_qubits:2 hand_trace in
  (* q0 idle 0, q1 idle 12 -> exp(-12/100) *)
  check_float "dephasing of idle qubit" (exp (-0.12)) p

let test_estimate_monotone_in_idle () =
  let m = Model.default in
  let longer =
    hand_trace
    @ [
        Micro.Gate_start { instr_id = 1; trap = xy 1 1; qubits = [ 0 ]; time = 112.0 };
        Micro.Gate_end { instr_id = 1; trap = xy 1 1; qubits = [ 0 ]; time = 122.0 };
      ]
  in
  check_bool "longer trace has lower success" true
    (Estimate.of_trace m ~num_qubits:2 longer < Estimate.of_trace m ~num_qubits:2 hand_trace)

let test_threshold () =
  let m = Model.make ~t1_us:1e15 ~t2_us:100.0 ~eps_move:0.0 ~eps_turn:0.0 ~eps_gate1:0.0 ~eps_gate2:0.0 () in
  (* error = 1 - exp(-0.12) ~ 0.113 *)
  check_bool "meets loose threshold" true
    (Estimate.meets_threshold m ~error_threshold:0.2 ~num_qubits:2 hand_trace);
  check_bool "fails tight threshold" false
    (Estimate.meets_threshold m ~error_threshold:0.05 ~num_qubits:2 hand_trace)

(* ------------------------------------------------- end-to-end (Fig 1 loop) *)

let test_qspr_mapping_has_lower_error_than_quale () =
  let program = Circuits.Qecc.c913 () in
  let fabric = Fabric.Layout.quale_45x85 () in
  let ctx =
    match Qspr.Mapper.create ~fabric ~config:Qspr.Config.(default |> with_m 5) program with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let qspr =
    match Qspr.Mapper.map Mvfb ctx with
    | Ok s -> s
    | Error e -> Alcotest.fail (Qspr.Mapper.error_to_string e)
  in
  let quale =
    match Qspr.Mapper.map Quale ctx with
    | Ok s -> s
    | Error e -> Alcotest.fail (Qspr.Mapper.error_to_string e)
  in
  let ranked =
    Estimate.compare_mappings Model.default ~num_qubits:9
      [ ("qspr", qspr.Qspr.Mapper.trace); ("quale", quale.Qspr.Mapper.trace) ]
  in
  (match ranked with
  | (best, p_best) :: (_, p_other) :: _ ->
      check_bool "qspr ranks first" true (best = "qspr");
      check_bool "strictly better" true (p_best > p_other)
  | _ -> Alcotest.fail "expected two mappings");
  ()

let () =
  Alcotest.run "noise"
    [
      ( "model",
        [
          Alcotest.test_case "defaults" `Quick test_model_default_valid;
          Alcotest.test_case "guards" `Quick test_model_guards;
        ] );
      ( "exposure",
        [
          Alcotest.test_case "hand trace" `Quick test_exposure_hand_trace;
          Alcotest.test_case "empty trace" `Quick test_exposure_empty_trace;
          Alcotest.test_case "unknown qubit" `Quick test_exposure_unknown_qubit;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "perfect model" `Quick test_estimate_perfect_model;
          Alcotest.test_case "gate errors" `Quick test_estimate_hand_value;
          Alcotest.test_case "move errors" `Quick test_estimate_move_errors;
          Alcotest.test_case "dephasing" `Quick test_estimate_dephasing;
          Alcotest.test_case "monotone in duration" `Quick test_estimate_monotone_in_idle;
          Alcotest.test_case "threshold check" `Quick test_threshold;
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "QSPR beats QUALE on error" `Quick test_qspr_mapping_has_lower_error_than_quale ]
      );
    ]
