(* Tests for stabilizer-state canonicalization and the Monte-Carlo noisy
   trace simulator: noiseless traces never fail, heavy noise almost always
   fails, the analytic estimate tracks the measured rate, and — the paper's
   motivation, verified empirically — QSPR's shorter mappings fail less
   often than QUALE's. *)

open Qasm
open Quantum
open Noise

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------ canonical stabilizers *)

let test_canonical_same_state_different_generators () =
  (* build the Bell pair two different ways *)
  let a = Stabilizer.create 2 in
  Stabilizer.apply_g1 a Gate.H 0;
  Stabilizer.apply_g2 a Gate.CX ~control:0 ~target:1;
  let b = Stabilizer.create 2 in
  Stabilizer.apply_g1 b Gate.H 1;
  Stabilizer.apply_g2 b Gate.CX ~control:1 ~target:0;
  check_bool "same bell state" true (Stabilizer.equal_states a b);
  check_bool "canonical forms equal" true
    (Stabilizer.canonical_stabilizers a = Stabilizer.canonical_stabilizers b)

let test_canonical_distinguishes_states () =
  let a = Stabilizer.create 2 in
  let b = Stabilizer.create 2 in
  Stabilizer.apply_g1 b Gate.X 0;
  check_bool "|00> != |01>" false (Stabilizer.equal_states a b);
  let c = Stabilizer.create 2 in
  Stabilizer.apply_g1 c Gate.Z 0;
  (* Z|00> = |00>: same state *)
  check_bool "Z on |0> is identity" true (Stabilizer.equal_states a c)

let test_canonical_sign_sensitivity () =
  (* |+> vs |->: same up to sign of the X stabilizer *)
  let plus = Stabilizer.create 1 in
  Stabilizer.apply_g1 plus Gate.H 0;
  let minus = Stabilizer.create 1 in
  Stabilizer.apply_g1 minus Gate.X 0;
  Stabilizer.apply_g1 minus Gate.H 0;
  check_bool "plus != minus" false (Stabilizer.equal_states plus minus)

let prop_canonical_invariant_under_restabilizing =
  (* multiplying the tableau through more Clifford ops and undoing them
     restores the same canonical form *)
  QCheck.Test.make ~name:"canonical form invariant under do/undo" ~count:60
    QCheck.(pair (int_bound 10000) (2 -- 5))
    (fun (seed, nq) ->
      let rng = Ion_util.Rng.create seed in
      let p = Circuits.Library.random_clifford rng ~num_qubits:nq ~gates:20 in
      match Stabilizer.run_program p with
      | Error _ -> false
      | Ok st -> (
          let before = Stabilizer.canonical_stabilizers st in
          (* apply H;H on every qubit: the identity *)
          for q = 0 to nq - 1 do
            Stabilizer.apply_g1 st Gate.H q;
            Stabilizer.apply_g1 st Gate.H q
          done;
          Stabilizer.canonical_stabilizers st = before))

(* ------------------------------------------------------------ montecarlo *)

let mapped_fig3 () =
  let program = Circuits.Qecc.c513 () in
  let fabric = Fabric.Layout.quale_45x85 () in
  let ctx =
    match Qspr.Mapper.create ~fabric ~config:Qspr.Config.(default |> with_m 3) program with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let sol =
    match Qspr.Mapper.map Mvfb ctx with
    | Ok s -> s
    | Error e -> Alcotest.fail (Qspr.Mapper.error_to_string e)
  in
  (program, sol)

let test_mc_noiseless_never_fails () =
  let program, sol = mapped_fig3 () in
  let model = Model.make ~t2_us:1e15 ~eps_move:0.0 ~eps_turn:0.0 ~eps_gate1:0.0 ~eps_gate2:0.0 () in
  match Montecarlo.simulate ~model ~program ~trace:sol.Qspr.Mapper.trace ~trials:50 () with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check_int "no failures" 0 s.Montecarlo.failures;
      check_bool "no injections" true (s.Montecarlo.mean_injected_errors = 0.0)

let test_mc_heavy_noise_fails () =
  let program, sol = mapped_fig3 () in
  let model = Model.make ~eps_gate2:0.5 () in
  match Montecarlo.simulate ~model ~program ~trace:sol.Qspr.Mapper.trace ~trials:60 () with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check_bool "mostly fails" true (s.Montecarlo.failure_rate > 0.5);
      check_bool "errors injected" true (s.Montecarlo.mean_injected_errors > 1.0)

let test_mc_tracks_analytic_estimate () =
  (* at moderate noise, measured success should be within a loose band of
     the analytic estimate *)
  let program, sol = mapped_fig3 () in
  let model = Model.make ~eps_gate2:0.02 ~eps_move:0.001 () in
  let analytic = Estimate.of_trace model ~num_qubits:5 sol.Qspr.Mapper.trace in
  match
    Montecarlo.simulate ~rng:(Ion_util.Rng.create 7) ~model ~program ~trace:sol.Qspr.Mapper.trace
      ~trials:400 ()
  with
  | Error e -> Alcotest.fail e
  | Ok s ->
      let measured = 1.0 -. s.Montecarlo.failure_rate in
      (* not all injected errors corrupt the state (e.g. Z on |0>), so the
         analytic estimate is a lower bound up to sampling noise *)
      check_bool
        (Printf.sprintf "measured %.3f >= analytic %.3f - 0.05" measured analytic)
        true
        (measured >= analytic -. 0.05)

let test_mc_guards () =
  let program, sol = mapped_fig3 () in
  (match Montecarlo.simulate ~model:Model.default ~program ~trace:sol.Qspr.Mapper.trace ~trials:0 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero trials accepted");
  let b = Program.builder ~name:"m" () in
  let q = Program.add_qubit b "q" in
  Program.add_gate1 b Gate.Meas_z q;
  let bad = Program.build_exn b in
  match Montecarlo.simulate ~model:Model.default ~program:bad ~trace:[] ~trials:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-unitary program accepted"

(* The paper's thesis, measured: under one noise model, the lower-latency
   QSPR mapping of [[9,1,3]] fails less often than the QUALE mapping. *)
let test_mc_qspr_beats_quale_empirically () =
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
  (* amplify transport noise so the mapping difference dominates *)
  let model = Model.make ~eps_move:0.004 ~eps_turn:0.02 ~t2_us:20_000.0 () in
  let run trace =
    match
      Montecarlo.simulate ~rng:(Ion_util.Rng.create 11) ~model ~program ~trace ~trials:300 ()
    with
    | Ok s -> s.Montecarlo.failure_rate
    | Error e -> Alcotest.fail e
  in
  let f_qspr = run qspr.Qspr.Mapper.trace and f_quale = run quale.Qspr.Mapper.trace in
  check_bool
    (Printf.sprintf "QSPR failure %.3f < QUALE failure %.3f" f_qspr f_quale)
    true (f_qspr < f_quale)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "montecarlo"
    [
      ( "canonical",
        [
          Alcotest.test_case "same state, different generators" `Quick
            test_canonical_same_state_different_generators;
          Alcotest.test_case "distinguishes states" `Quick test_canonical_distinguishes_states;
          Alcotest.test_case "sign sensitive" `Quick test_canonical_sign_sensitivity;
        ]
        @ qsuite [ prop_canonical_invariant_under_restabilizing ] );
      ( "montecarlo",
        [
          Alcotest.test_case "noiseless never fails" `Quick test_mc_noiseless_never_fails;
          Alcotest.test_case "heavy noise fails" `Quick test_mc_heavy_noise_fails;
          Alcotest.test_case "tracks analytic estimate" `Slow test_mc_tracks_analytic_estimate;
          Alcotest.test_case "guards" `Quick test_mc_guards;
          Alcotest.test_case "QSPR beats QUALE empirically" `Slow test_mc_qspr_beats_quale_empirically;
        ] );
    ]
