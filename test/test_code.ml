(* Tests for the Knill-Laflamme code verifier and the reference circuit
   library: Shor's [[9,1,3]] encoder must verify at distance 3, the [[4,2,2]]
   construction at distance 2, the repetition code shows the expected
   phase-error blindness, and — an honest finding of this reproduction — the
   paper's Figure 3 "[[5,1,3]] encoder" is schematic: as drawn it leaves the
   data qubit's Z observable exposed (distance 1).  Its role in the paper is
   a mapping workload, which does not require true code distance. *)

open Quantum

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* encoded |b>: X the data qubit before running the encoder body *)
let encode_with program ~data_qubit b =
  let bld = Qasm.Program.builder ~name:"enc" () in
  let n = Qasm.Program.num_qubits program in
  let qs = Array.init n (fun i -> Qasm.Program.add_qubit bld ~init:0 (Printf.sprintf "q%d" i)) in
  if b = 1 then Qasm.Program.add_gate1 bld Qasm.Gate.X qs.(data_qubit);
  Array.iter
    (fun instr ->
      match instr with
      | Qasm.Instr.Gate1 (g, q) -> Qasm.Program.add_gate1 bld g q
      | Qasm.Instr.Gate2 (g, c, t) -> Qasm.Program.add_gate2 bld g c t
      | Qasm.Instr.Qubit_decl _ -> ())
    program.Qasm.Program.instrs;
  Statevec.run_program (Qasm.Program.build_exn bld)

(* ----------------------------------------------------------- primitives *)

let test_pauli_string_weight () =
  check_int "weight" 2 (Code.weight [| Code.I; Code.X; Code.I; Code.Z |]);
  check_int "identity" 0 (Code.weight [| Code.I; Code.I |])

let test_pauli_string_action () =
  let s = Statevec.zero_state 2 in
  let s' = Code.apply_pauli_string [| Code.X; Code.I |] s in
  Alcotest.(check (float 1e-9)) "X0 |00> = |01>... prob" 0.0 (Statevec.prob0 s' 0);
  Alcotest.(check (float 1e-9)) "q1 untouched" 1.0 (Statevec.prob0 s' 1)

let test_trivial_code_distance_one () =
  (* the "code" spanned by |0>, |1> on one qubit detects nothing *)
  let zero = Statevec.basis 1 0 and one = Statevec.basis 1 1 in
  check_bool "distance 1" true (Code.distance ~zero ~one ~max_weight:1 = Some 1)

(* ------------------------------------------------------- real codes *)

let test_shor_code_distance_three () =
  let enc = Circuits.Library.shor_encoder () in
  let zero = encode_with enc ~data_qubit:0 0 and one = encode_with enc ~data_qubit:0 1 in
  check_bool "orthogonal codewords" true (Cplx.norm2 (Statevec.inner zero one) < 1e-9);
  check_bool "distance 3" true (Code.distance ~zero ~one ~max_weight:3 = Some 3)

let test_422_code_distance_two () =
  (* |0L> = GHZ4, |1L> = X on qubits 1 and 3 of GHZ4 *)
  let ghz = Statevec.run_program (Circuits.Library.ghz 4) in
  let one = Statevec.apply_g1 Qasm.Gate.X 1 (Statevec.apply_g1 Qasm.Gate.X 3 ghz) in
  check_bool "distance 2" true (Code.distance ~zero:ghz ~one ~max_weight:3 = Some 2)

let test_repetition_code_phase_blind () =
  (* 3-qubit bit-flip code: detects weight-1 X errors but not Z errors *)
  let enc = Circuits.Library.repetition_encoder 3 in
  let zero = encode_with enc ~data_qubit:0 0 and one = encode_with enc ~data_qubit:0 1 in
  check_bool "X error detectable" true (Code.detectable ~zero ~one [| Code.X; Code.I; Code.I |]);
  check_bool "Z error NOT detectable" false (Code.detectable ~zero ~one [| Code.Z; Code.I; Code.I |]);
  check_bool "distance 1 overall" true (Code.distance ~zero ~one ~max_weight:3 = Some 1)

let test_fig3_circuit_is_schematic () =
  (* the reproduction finding: the paper's Figure 3 circuit, taken literally
     with q3 as Z-basis data, has an undetectable weight-1 error *)
  let p = Circuits.Qecc.c513 () in
  let zero = encode_with p ~data_qubit:3 0 and one = encode_with p ~data_qubit:3 1 in
  check_bool "orthogonal" true (Cplx.norm2 (Statevec.inner zero one) < 1e-9);
  check_bool "distance 1, not 3" true (Code.distance ~zero ~one ~max_weight:3 = Some 1);
  match Code.undetectable_of_weight ~zero ~one ~w:1 with
  | Some witness -> check_int "weight-1 witness" 1 (Code.weight witness)
  | None -> Alcotest.fail "expected a weight-1 witness"

let test_code_guards () =
  let zero = Statevec.zero_state 2 in
  (match Code.distance ~zero ~one:zero ~max_weight:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-orthogonal codewords accepted");
  match Code.apply_pauli_string [| Code.X |] zero with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch accepted"

(* ---------------------------------------------------------- library *)

let test_library_ghz () =
  let s = Statevec.run_program (Circuits.Library.ghz 3) in
  Alcotest.(check (float 1e-9)) "|000| weight" 0.5 (Cplx.norm2 (Statevec.amplitude s 0));
  Alcotest.(check (float 1e-9)) "|111| weight" 0.5 (Cplx.norm2 (Statevec.amplitude s 7))

let test_library_guards () =
  (match Circuits.Library.ghz 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ghz 1 accepted");
  match Circuits.Library.repetition_encoder 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rep 1 accepted"

let test_library_steane_round_maps () =
  (* the syndrome round (with measurements) maps via the MC placer *)
  let p = Circuits.Library.steane_syndrome_round () in
  check_bool "non-unitary" false (Qasm.Program.is_unitary p);
  let fabric = Fabric.Layout.quale_45x85 () in
  let ctx =
    match Qspr.Mapper.create ~fabric ~config:Qspr.Config.(default |> with_m 2) p with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  match Qspr.Mapper.map Monte_carlo ctx with
  | Ok sol -> check_bool "mapped" true (sol.Qspr.Mapper.latency > 0.0)
  | Error e -> Alcotest.fail (Qspr.Mapper.error_to_string e)

let test_library_memory_experiment () =
  let p = Circuits.Library.memory_experiment ~rounds:2 ("[[5,1,3]]", Circuits.Qecc.c513 ()) in
  check_bool "unitary" true (Qasm.Program.is_unitary p);
  (* encoder 12 gates + 2 rounds x 10 X gates + decoder 12 gates *)
  check_int "gate volume" 44 (Qasm.Program.gate_count p);
  (* the whole workload is the identity on the tableau *)
  let t = Stabilizer.create 5 in
  (match Stabilizer.run_on p t with Ok () -> () | Error e -> Alcotest.fail e);
  check_bool "identity overall" true (Stabilizer.is_zero_state t);
  (* and it maps *)
  let fabric = Fabric.Layout.quale_45x85 () in
  let ctx =
    match Qspr.Mapper.create ~fabric ~config:Qspr.Config.(default |> with_m 2) p with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  match Qspr.Mapper.map Mvfb ctx with
  | Ok sol -> check_bool "latency above encode+decode baseline" true (sol.Qspr.Mapper.latency >= 1020.0)
  | Error e -> Alcotest.fail (Qspr.Mapper.error_to_string e)

let test_library_memory_guards () =
  let b = Qasm.Program.builder ~name:"m" () in
  let q = Qasm.Program.add_qubit b "q" in
  Qasm.Program.add_gate1 b Qasm.Gate.Meas_z q;
  match Circuits.Library.memory_experiment ("bad", Qasm.Program.build_exn b) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-unitary encoder accepted"

let test_library_random_clifford_valid () =
  let rng = Ion_util.Rng.create 31 in
  for _ = 1 to 20 do
    let p = Circuits.Library.random_clifford rng ~num_qubits:4 ~gates:30 in
    match Stabilizer.run_program p with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "random clifford not clifford: %s" e
  done

let () =
  Alcotest.run "code"
    [
      ( "primitives",
        [
          Alcotest.test_case "weight" `Quick test_pauli_string_weight;
          Alcotest.test_case "pauli action" `Quick test_pauli_string_action;
          Alcotest.test_case "trivial code" `Quick test_trivial_code_distance_one;
          Alcotest.test_case "guards" `Quick test_code_guards;
        ] );
      ( "codes",
        [
          Alcotest.test_case "Shor [[9,1,3]] verifies at distance 3" `Slow test_shor_code_distance_three;
          Alcotest.test_case "[[4,2,2]] at distance 2" `Quick test_422_code_distance_two;
          Alcotest.test_case "repetition code phase-blind" `Quick test_repetition_code_phase_blind;
          Alcotest.test_case "paper Figure 3 is schematic (finding)" `Quick test_fig3_circuit_is_schematic;
        ] );
      ( "library",
        [
          Alcotest.test_case "ghz amplitudes" `Quick test_library_ghz;
          Alcotest.test_case "guards" `Quick test_library_guards;
          Alcotest.test_case "steane round maps" `Quick test_library_steane_round_maps;
          Alcotest.test_case "random clifford is clifford" `Quick test_library_random_clifford_valid;
          Alcotest.test_case "memory experiment" `Quick test_library_memory_experiment;
          Alcotest.test_case "memory guards" `Quick test_library_memory_guards;
        ] );
    ]
