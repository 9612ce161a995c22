(* Tests for the OpenQASM 2.0 subset front end: parsing, lowering to the
   mapper's program representation, diagnostics, and semantic equivalence of
   the paper-dialect and OpenQASM renderings of the same circuit. *)

open Qasm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parse_exn src =
  match Openqasm.parse src with Ok p -> p | Error e -> Alcotest.failf "parse: %s" e

let bell_src =
  {|OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
|}

let test_parse_bell () =
  let p = parse_exn bell_src in
  check_int "qubits" 2 (Program.num_qubits p);
  (* 2 decls + h + cx + 2 measures *)
  check_int "instructions" 6 (Program.num_instrs p);
  check_bool "has measure" false (Program.is_unitary p);
  check_bool "qubit names" true (Program.find_qubit p "q[0]" = Some 0)

let test_parse_gates () =
  let p =
    parse_exn
      "qreg r[3];\nx r[0]; y r[1]; z r[2]; s r[0]; sdg r[0]; t r[1]; tdg r[1];\ncy r[0],r[1]; cz r[1],r[2];\nreset r[0];\n"
  in
  check_int "gate count" 10 (Program.gate_count p)

let test_parse_barrier_ignored () =
  let p = parse_exn "qreg q[2];\nh q[0];\nbarrier q[0],q[1];\nh q[1];\n" in
  check_int "barrier dropped" 2 (Program.gate_count p)

let test_parse_comments () =
  let p = parse_exn "// header comment\nqreg q[1]; // trailing\nh q[0];\n" in
  check_int "one gate" 1 (Program.gate_count p)

let expect_error src fragment =
  match Openqasm.parse src with
  | Ok _ -> Alcotest.failf "expected error containing %S" fragment
  | Error msg ->
      let contains s sub =
        let n = String.length sub in
        let found = ref false in
        for i = 0 to String.length s - n do
          if String.sub s i n = sub then found := true
        done;
        !found
      in
      check_bool (Printf.sprintf "%S in %S" fragment msg) true (contains msg fragment)

let test_parse_errors () =
  expect_error "qreg q[2];\ncx q[0],q[0];\n" "identical operands";
  expect_error "h q[0];\n" "unknown quantum register";
  expect_error "qreg q[2];\nh q[5];\n" "out of range";
  expect_error "qreg q[2];\nqreg q[2];\n" "declared twice";
  expect_error "qreg q[2];\nu1 q[0];\n" "unsupported";
  expect_error "qreg q[2];\nh q;\n" "broadcast";
  expect_error "qreg q[1];\nmeasure q[0];\n" "->";
  expect_error "qreg q[1];\nmeasure q[0] -> c[0];\n" "classical bit";
  expect_error "qreg q[2];\nrx(0.5) q[0];\n" "not supported"

let test_roundtrip_via_openqasm () =
  (* paper circuit -> OpenQASM text -> back: same instruction stream modulo
     declarations' init flags *)
  let p = Circuits.Qecc.c513 () in
  let text = Openqasm.to_openqasm p in
  let p' = parse_exn text in
  check_int "same qubits" (Program.num_qubits p) (Program.num_qubits p');
  check_int "same gate count" (Program.gate_count p) (Program.gate_count p');
  (* and the state vectors agree *)
  let s = Quantum.Statevec.run_program p and s' = Quantum.Statevec.run_program p' in
  check_bool "same semantics" true (Quantum.Statevec.approx_equal s s')

let test_measure_and_reset_lowering () =
  let p = parse_exn "qreg q[1];\ncreg c[1];\nreset q[0];\nh q[0];\nmeasure q[0] -> c[0];\n" in
  let kinds =
    Array.to_list p.Program.instrs
    |> List.filter_map (function
         | Instr.Gate1 (g, _) -> Some g
         | Instr.Qubit_decl _ | Instr.Gate2 _ -> None)
  in
  check_bool "prep, h, meas" true (kinds = [ Gate.Prep_z; Gate.H; Gate.Meas_z ])

let test_mapped_end_to_end () =
  (* OpenQASM in, mapped latency out: the full adoption path *)
  let p = parse_exn bell_src in
  let fabric = Fabric.Layout.quale_45x85 () in
  let ctx =
    match Qspr.Mapper.create ~fabric ~config:Qspr.Config.(default |> with_m 2) p with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  (* the program measures, so MVFB's backward pass is unavailable; the MC
     placer must still work *)
  (match Qspr.Mapper.map Mvfb ctx with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "MVFB accepted a non-unitary program");
  match Qspr.Mapper.(map Monte_carlo (with_search (Qspr.Config.with_m 3) ctx)) with
  | Error e -> Alcotest.fail (Qspr.Mapper.error_to_string e)
  | Ok sol -> check_bool "mapped" true (sol.Qspr.Mapper.latency > 0.0)

(* ----------------------------------------------------------- gate macros *)

let test_macro_expansion () =
  let p =
    parse_exn
      "OPENQASM 2.0;\ngate bell a,b { h a; cx a,b; }\nqreg q[3];\nbell q[0],q[1];\nbell q[1],q[2];\n"
  in
  (* two expansions x (h + cx) *)
  check_int "gates" 4 (Program.gate_count p);
  check_int "2q gates" 2 (Program.two_qubit_count p)

let test_macro_nested () =
  let p =
    parse_exn
      "gate flip a { x a; }\ngate double a { flip a; flip a; }\nqreg q[1];\ndouble q[0];\n"
  in
  check_int "two X gates" 2 (Program.gate_count p);
  (* X;X is the identity on the state *)
  let s = Quantum.Statevec.run_program p in
  Alcotest.(check (float 1e-9)) "back to |0>" 1.0 (Quantum.Statevec.prob0 s 0)

let test_macro_semantics () =
  (* macro bell = literal bell *)
  let via_macro = parse_exn "gate bell a,b { h a; cx a,b; }\nqreg q[2];\nbell q[0],q[1];\n" in
  let literal = parse_exn "qreg q[2];\nh q[0];\ncx q[0],q[1];\n" in
  check_bool "same state" true
    (Quantum.Statevec.approx_equal
       (Quantum.Statevec.run_program via_macro)
       (Quantum.Statevec.run_program literal))

let test_macro_errors () =
  expect_error "gate bell a,b { h a; cx a,b; }\nqreg q[2];\nbell q[0];\n" "expects 2 operand";
  expect_error "gate loop a { loop a; }\nqreg q[1];\nloop q[0];\n" "too deep";
  expect_error "gate bad { h x; }\nqreg q[1];\n" "takes no qubits";
  expect_error "gate bad a { h a;\nqreg q[1];\n" "missing '}'"

let gen_random_program =
  QCheck.Gen.(
    let* nq = 2 -- 5 in
    let* ngates = 0 -- 25 in
    let* seeds = list_repeat ngates (triple (int_bound 8) (int_bound 997) (int_bound 991)) in
    let b = Program.builder ~name:"rand" () in
    let qs = Array.init nq (fun i -> Program.add_qubit b ~init:0 (Printf.sprintf "q%d" i)) in
    List.iter
      (fun (kind, a, c) ->
        let qa = qs.(a mod nq) and qc = qs.(c mod nq) in
        match kind with
        | 0 -> Program.add_gate1 b Gate.H qa
        | 1 -> Program.add_gate1 b Gate.S qa
        | 2 -> Program.add_gate1 b Gate.T qa
        | 3 -> Program.add_gate1 b Gate.Prep_z qa
        | 4 -> Program.add_gate1 b Gate.Meas_z qa
        | _ -> if qa <> qc then Program.add_gate2 b Gate.CY qa qc)
      seeds;
    return (Program.build_exn b))

let prop_roundtrip_any_program =
  QCheck.Test.make ~name:"to_openqasm/parse preserves the gate stream" ~count:100
    (QCheck.make ~print:Qasm.Printer.to_string gen_random_program)
    (fun p ->
      match Openqasm.parse (Openqasm.to_openqasm p) with
      | Error _ -> false
      | Ok p' ->
          Program.num_qubits p = Program.num_qubits p'
          && Program.gate_count p = Program.gate_count p'
          && Program.two_qubit_count p = Program.two_qubit_count p')

let () =
  Alcotest.run "openqasm"
    [
      ( "parse",
        [
          Alcotest.test_case "bell" `Quick test_parse_bell;
          Alcotest.test_case "gate zoo" `Quick test_parse_gates;
          Alcotest.test_case "barrier ignored" `Quick test_parse_barrier_ignored;
          Alcotest.test_case "comments" `Quick test_parse_comments;
          Alcotest.test_case "diagnostics" `Quick test_parse_errors;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "roundtrip + semantics" `Quick test_roundtrip_via_openqasm;
          Alcotest.test_case "measure/reset" `Quick test_measure_and_reset_lowering;
          Alcotest.test_case "mapped end to end" `Quick test_mapped_end_to_end;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_roundtrip_any_program ] );
      ( "macros",
        [
          Alcotest.test_case "expansion" `Quick test_macro_expansion;
          Alcotest.test_case "nested" `Quick test_macro_nested;
          Alcotest.test_case "semantics" `Quick test_macro_semantics;
          Alcotest.test_case "errors" `Quick test_macro_errors;
        ] );
    ]
