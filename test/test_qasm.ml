(* Tests for the QASM front end: gate algebra, lexer/parser diagnostics,
   printer round-trips, program validation and the QIDG/UIDG dependency
   graphs, anchored on the paper's Figure 3 [[5,1,3]] encoder. *)

open Qasm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

(* The [[5,1,3]] encoding circuit exactly as listed in the paper's Figure 3
   (instructions 1-18; the listing skips number 16). *)
let fig3_qasm =
  "# [[5,1,3]] cyclic encoder, paper Figure 3\n\
   QUBIT q0,0\n\
   QUBIT q1,0\n\
   QUBIT q2,0\n\
   QUBIT q3\n\
   QUBIT q4,0\n\
   H q0\n\
   H q1\n\
   H q2\n\
   H q4\n\
   C-X q3,q2\n\
   C-Z q4,q2\n\
   C-Y q2,q1\n\
   C-Y q3,q1\n\
   C-X q4,q1\n\
   C-Z q2,q0\n\
   C-Y q3,q0\n\
   C-Z q4,q0\n"

let fig3_program () =
  match Parser.parse ~name:"[[5,1,3]]" fig3_qasm with
  | Ok p -> p
  | Error msg -> Alcotest.failf "fig3 parse failed: %s" msg

(* Paper timing: T_1q = 10us, T_2q = 100us; declarations are free. *)
let paper_delay = function
  | Instr.Qubit_decl _ -> 0.0
  | Instr.Gate1 _ -> 10.0
  | Instr.Gate2 _ -> 100.0

(* ----------------------------------------------------------------- Gate *)

let test_gate_names_roundtrip () =
  List.iter
    (fun g ->
      match Gate.g1_of_name (Gate.g1_name g) with
      | Some g' -> check_bool (Gate.g1_name g) true (Gate.equal_g1 g g')
      | None -> Alcotest.failf "g1 name %s does not parse back" (Gate.g1_name g))
    Gate.all_g1;
  List.iter
    (fun g ->
      match Gate.g2_of_name (Gate.g2_name g) with
      | Some g' -> check_bool (Gate.g2_name g) true (Gate.equal_g2 g g')
      | None -> Alcotest.failf "g2 name %s does not parse back" (Gate.g2_name g))
    Gate.all_g2

let test_gate_aliases () =
  check_bool "CNOT = C-X" true (Gate.g2_of_name "CNOT" = Some Gate.CX);
  check_bool "cz = C-Z" true (Gate.g2_of_name "cz" = Some Gate.CZ);
  check_bool "measure alias" true (Gate.g1_of_name "MEASURE" = Some Gate.Meas_z);
  check_bool "unknown" true (Gate.g1_of_name "FOO" = None)

let test_gate_inverses () =
  check_bool "H self-inverse" true (Gate.g1_inverse Gate.H = Some Gate.H);
  check_bool "S -> Sdg" true (Gate.g1_inverse Gate.S = Some Gate.Sdg);
  check_bool "Sdg -> S" true (Gate.g1_inverse Gate.Sdg = Some Gate.S);
  check_bool "T -> Tdg" true (Gate.g1_inverse Gate.T = Some Gate.Tdg);
  check_bool "measure has none" true (Gate.g1_inverse Gate.Meas_z = None);
  check_bool "prep has none" true (Gate.g1_inverse Gate.Prep_z = None);
  List.iter
    (fun g -> check_bool "controlled Pauli self-inverse" true (Gate.equal_g2 (Gate.g2_inverse g) g))
    Gate.all_g2

let test_gate_unitarity () =
  check_bool "H unitary" true (Gate.g1_is_unitary Gate.H);
  check_bool "meas not" false (Gate.g1_is_unitary Gate.Meas_z);
  check_bool "prep not" false (Gate.g1_is_unitary Gate.Prep_z)

(* ---------------------------------------------------------------- Lexer *)

let paper_tokens src =
  match Lexer.tokenize Lexer.Paper src with
  | Ok toks -> toks
  | Error e -> Alcotest.fail (Lexer.error_to_string e)

let test_lexer_basic () =
  let toks = paper_tokens "H q0\nC-X q3,q2\n" in
  Alcotest.(check (list int)) "line numbers" [ 1; 1; 2; 2; 2; 2 ]
    (List.map (fun (t : Lexer.t) -> t.line) toks);
  let line2 = List.filter (fun (t : Lexer.t) -> t.line = 2) toks in
  check_bool "tokens of line 2" true
    (List.map (fun (t : Lexer.t) -> t.token) line2
    = [ Lexer.Ident "C-X"; Lexer.Ident "q3"; Lexer.Comma; Lexer.Ident "q2" ]);
  Alcotest.(check (list int)) "columns of line 2" [ 1; 5; 7; 8 ]
    (List.map (fun (t : Lexer.t) -> t.col) line2)

let test_lexer_comments_and_blanks () =
  let toks = paper_tokens "# full comment\n\nH q0 // trailing\n   \n" in
  check_bool "only the instruction's tokens" true
    (List.map (fun (t : Lexer.t) -> t.token) toks = [ Lexer.Ident "H"; Lexer.Ident "q0" ]);
  check_bool "all on line 3" true (List.for_all (fun (t : Lexer.t) -> t.line = 3) toks)

let test_lexer_error () =
  match Lexer.tokenize Lexer.Paper "H q0\n@bad\n" with
  | Ok _ -> Alcotest.fail "expected lexer error"
  | Error e ->
      check_int "error line" 2 e.Lexer.line;
      check_int "error col" 1 e.Lexer.col;
      let msg = Lexer.error_to_string e in
      check_bool "mentions line 2" true (String.length msg > 0 && String.sub msg 0 6 = "line 2")

let bell_openqasm =
  "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
   gate bell a,b { h a; cx a,b; }\nbell q[0],q[1];\nmeasure q[0] -> c[0];\n\
   measure q[1] -> c[1];\n"

let test_dialect_detection () =
  List.iter
    (fun (label, src, expected) ->
      check_bool label true (Lexer.detect src = expected))
    [
      ("header", "OPENQASM 2.0;\nqreg q[1];\n", Lexer.Openqasm);
      ("headerless qreg-first", "qreg q[2];\nh q[0];\n", Lexer.Openqasm);
      ("keywords in any case", "  Include \"qelib1.inc\";\n", Lexer.Openqasm);
      ("gate-first", "gate g a { h a; }\n", Lexer.Openqasm);
      ("comment-first OpenQASM", "// c\n# d\n\ncreg c[1];\n", Lexer.Openqasm);
      ("comment-first paper", "# [[5,1,3]]\nQUBIT a\n", Lexer.Paper);
      ("QUBIT-first", "QUBIT a,0\nH a\n", Lexer.Paper);
      ("gate mnemonic first", "H q0\n", Lexer.Paper);
      ("garbage", "%% not qasm", Lexer.Paper);
      ("empty", "", Lexer.Paper);
      ("keyword prefix only", "qregs a\n", Lexer.Paper);
    ]

(* --------------------------------------------------------------- Parser *)

let test_parse_fig3 () =
  let p = fig3_program () in
  check_int "qubits" 5 (Program.num_qubits p);
  check_int "instructions" 17 (Program.num_instrs p);
  check_int "1q gates" 4 (Program.one_qubit_count p);
  check_int "2q gates" 8 (Program.two_qubit_count p);
  check_string "qubit 3 name" "q3" (Program.qubit_name p 3);
  check_bool "unitary" true (Program.is_unitary p)

let expect_parse_error src fragment =
  match Parser.parse src with
  | Ok _ -> Alcotest.failf "expected parse error containing %S" fragment
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
  expect_parse_error "H q0\n" "undeclared qubit";
  expect_parse_error "QUBIT a\nQUBIT a\n" "declared twice";
  expect_parse_error "QUBIT a\nFOO a\n" "unknown gate";
  expect_parse_error "QUBIT a\nC-X a,a\n" "identical operands";
  expect_parse_error "QUBIT a\nQUBIT b\nH a,b\n" "expects one operand";
  expect_parse_error "QUBIT a,7\n" "initializer";
  expect_parse_error "QUBIT a\nQUBIT b\nC-X a\n" "expects two operands"

let expect_located label src ~line ~col =
  match Parser.parse_located src with
  | Ok _ -> Alcotest.failf "%s: expected an error" label
  | Error e ->
      check_int (label ^ ": line") line e.Parser.line;
      check_int (label ^ ": col") col e.Parser.col

let test_parse_overflow () =
  (* digit runs too long for an int are located errors, never exceptions *)
  expect_located "paper initializer" "QUBIT a,99999999999999999999" ~line:1 ~col:9;
  expect_located "OpenQASM register size" "OPENQASM 2.0;\nqreg q[99999999999999999999];" ~line:2
    ~col:1

let test_parse_missing_file () =
  let path = "no-such-dir/missing.qasm" in
  match Parser.parse_file_located path with
  | Ok _ -> Alcotest.fail "parsed a missing file"
  | Error e ->
      check_int "positionless" 0 e.Parser.line;
      let msg = Parser.error_to_string e in
      check_bool (Printf.sprintf "%S names the path" msg) true
        (String.starts_with ~prefix:path msg)

let test_parse_either_dialect () =
  match (Parser.parse bell_openqasm, Parser.parse "QUBIT a,0\nQUBIT b,0\nH a\nC-X a,b\n") with
  | Ok q, Ok p ->
      check_string "default name" "qasm" q.Program.name;
      check_int "OpenQASM gates" 4 (Program.gate_count q);
      check_int "paper gates" 2 (Program.gate_count p)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_parse_roundtrip_fig3 () =
  let p = fig3_program () in
  let text = Printer.to_string p in
  match Parser.parse ~name:p.Program.name text with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok p' ->
      check_int "same instr count" (Program.num_instrs p) (Program.num_instrs p');
      Array.iteri
        (fun i instr -> check_bool "instr equal" true (Instr.equal instr p'.Program.instrs.(i)))
        p.Program.instrs

let test_listing_numbers () =
  let p = fig3_program () in
  let lst = Printer.listing p in
  check_bool "numbered" true (String.length lst > 0);
  check_bool "first line numbered 1" true (String.sub lst 0 3 = "  1")

(* -------------------------------------------------------------- Program *)

let test_program_validation () =
  let mk instrs = Program.make ~name:"t" ~qubit_names:[| "a"; "b" |] ~instrs in
  (match mk [ Instr.Gate1 (Gate.H, 0) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "use before declaration accepted");
  (match mk [ Instr.Qubit_decl { qubit = 0; init = None }; Instr.Gate1 (Gate.H, 5) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range qubit accepted");
  match
    mk
      [
        Instr.Qubit_decl { qubit = 0; init = Some 0 };
        Instr.Qubit_decl { qubit = 1; init = None };
        Instr.Gate2 (Gate.CX, 0, 1);
      ]
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid program rejected: %s" e

let test_program_builder () =
  let b = Program.builder ~name:"built" () in
  let a = Program.add_qubit b ~init:0 "a" in
  let c = Program.add_qubit b "c" in
  Program.add_gate1 b Gate.H a;
  Program.add_gate2 b Gate.CX a c;
  let p = Program.build_exn b in
  check_int "qubits" 2 (Program.num_qubits p);
  check_int "instrs" 4 (Program.num_instrs p);
  check_bool "find a" true (Program.find_qubit p "a" = Some 0);
  check_bool "find missing" true (Program.find_qubit p "zz" = None)

let test_program_builder_duplicate () =
  let b = Program.builder ~name:"dup" () in
  ignore (Program.add_qubit b "a");
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Program.add_qubit: duplicate qubit name a") (fun () ->
      ignore (Program.add_qubit b "a"))

let test_program_non_unitary () =
  let b = Program.builder ~name:"m" () in
  let q = Program.add_qubit b "q" in
  Program.add_gate1 b Gate.Meas_z q;
  let p = Program.build_exn b in
  check_bool "not unitary" false (Program.is_unitary p)

(* ------------------------------------------------------------------ Dag *)

let test_dag_fig3_structure () =
  let g = Dag.of_program (fig3_program ()) in
  check_bool "consistent" true (Dag.check_acyclic_consistency g);
  check_int "nodes" 17 (Dag.num_nodes g);
  (* instruction 9 (0-based) is C-X q3,q2: depends on decl of q3 (id 3) and
     H q2 (id 7) *)
  let n = Dag.node g 9 in
  check_bool "C-X q3,q2 preds" true (List.sort compare n.Dag.preds = [ 3; 7 ]);
  (* sinks: the last gate touching each qubit; q0's last touch is C-Z q4,q0
     (last instruction), q1's is C-X q4,q1 (id 13) *)
  let sinks = Dag.sinks g in
  check_bool "last instr is a sink" true (List.mem 16 sinks)

let test_dag_fig3_critical_path () =
  let g = Dag.of_program (fig3_program ()) in
  (* The paper's ideal baseline for [[5,1,3]] is 510us (Table 2). *)
  check_float "baseline latency" 510.0 (Dag.critical_path ~delay:paper_delay g)

let test_dag_reverse_fig3 () =
  let g = Dag.of_program (fig3_program ()) in
  match Dag.reverse g with
  | Error e -> Alcotest.failf "reverse failed: %s" e
  | Ok g' ->
      check_int "same node count" (Dag.num_nodes g) (Dag.num_nodes g');
      check_bool "consistent" true (Dag.check_acyclic_consistency g');
      (* same critical path: delays are preserved under inversion *)
      check_float "same critical path" 510.0 (Dag.critical_path ~delay:paper_delay g');
      (* first gate of the reverse is the inverse of the last gate: C-Z q4,q0 *)
      let first_gate =
        Array.to_list (Dag.nodes g')
        |> List.find (fun n -> Instr.is_gate n.Dag.instr)
      in
      check_bool "reverse starts with C-Z q4,q0" true
        (Instr.equal first_gate.Dag.instr (Instr.Gate2 (Gate.CZ, 4, 0)))

let test_dag_reverse_non_unitary () =
  let b = Program.builder ~name:"m" () in
  let q = Program.add_qubit b "q" in
  Program.add_gate1 b Gate.Meas_z q;
  let g = Dag.of_program (Program.build_exn b) in
  match Dag.reverse g with
  | Ok _ -> Alcotest.fail "reverse of non-unitary program accepted"
  | Error _ -> ()

let test_dag_double_reverse_identity () =
  let g = Dag.of_program (fig3_program ()) in
  match Dag.reverse g with
  | Error e -> Alcotest.fail e
  | Ok g' -> (
      match Dag.reverse g' with
      | Error e -> Alcotest.fail e
      | Ok g'' ->
          let p = Dag.program g and p'' = Dag.program g'' in
          check_int "same size" (Program.num_instrs p) (Program.num_instrs p'');
          (* double inversion restores the original gate sequence *)
          Array.iteri
            (fun i instr -> check_bool "instr restored" true (Instr.equal instr p''.Program.instrs.(i)))
            p.Program.instrs)

let test_dag_dependents () =
  let g = Dag.of_program (fig3_program ()) in
  let deps = Dag.dependents g in
  (* the final instruction has no dependents *)
  check_int "sink deps" 0 deps.(16);
  (* H q2 (id 7) gates every later 2q instruction on q2's cone:
     C-X q3,q2 -> C-Z q4,q2 -> C-Y q2,q1 -> ... all 8 2q gates depend on it *)
  check_int "H q2 dependents" 8 deps.(7);
  (* declarations dominate everything touching their qubit *)
  check_bool "decl q3 has dependents" true (deps.(3) > 0)

let test_dag_asap_alap () =
  let g = Dag.of_program (fig3_program ()) in
  let asap = Dag.asap_times ~delay:paper_delay g in
  let alap = Dag.alap_times ~delay:paper_delay g in
  Array.iteri
    (fun i a ->
      check_bool (Printf.sprintf "asap <= alap at %d" i) true (a <= alap.(i) +. 1e-9))
    asap;
  (* critical-path nodes have zero slack: H q2 then the chain through q1/q0 *)
  check_float "H q2 slack" asap.(7) alap.(7);
  (* declarations start at 0 *)
  check_float "decl asap" 0.0 asap.(0)

let test_dag_sources () =
  let g = Dag.of_program (fig3_program ()) in
  (* exactly the 5 declarations are sources *)
  Alcotest.(check (list int)) "sources" [ 0; 1; 2; 3; 4 ] (List.sort compare (Dag.sources g))

let test_dag_empty_program () =
  let p = Program.make_exn ~name:"empty" ~qubit_names:[||] ~instrs:[] in
  let g = Dag.of_program p in
  check_int "no nodes" 0 (Dag.num_nodes g);
  check_float "zero critical path" 0.0 (Dag.critical_path ~delay:paper_delay g)

(* Property: for random linear circuits the DAG is consistent and the
   critical path is bounded by total work. *)
let gen_random_program =
  QCheck.Gen.(
    let* nq = 2 -- 6 in
    let* ngates = 0 -- 40 in
    let* seeds = list_repeat ngates (pair (int_bound 1000) (int_bound 1000)) in
    let b = Program.builder ~name:"rand" () in
    let qs = Array.init nq (fun i -> Program.add_qubit b (Printf.sprintf "q%d" i)) in
    List.iter
      (fun (a, c) ->
        let qa = qs.(a mod nq) and qc = qs.(c mod nq) in
        if qa = qc then Program.add_gate1 b Gate.H qa
        else if (a + c) mod 3 = 0 then Program.add_gate2 b Gate.CX qa qc
        else if (a + c) mod 3 = 1 then Program.add_gate2 b Gate.CZ qa qc
        else Program.add_gate1 b Gate.X qa)
      seeds;
    return (Program.build_exn b))

let arb_program = QCheck.make ~print:Printer.to_string gen_random_program

let prop_dag_consistent =
  QCheck.Test.make ~name:"random DAGs are structurally consistent" ~count:100 arb_program (fun p ->
      Dag.check_acyclic_consistency (Dag.of_program p))

let prop_critical_path_bounds =
  QCheck.Test.make ~name:"critical path within [max gate, total work]" ~count:100 arb_program
    (fun p ->
      let g = Dag.of_program p in
      let cp = Dag.critical_path ~delay:paper_delay g in
      let total =
        Array.fold_left (fun acc i -> acc +. paper_delay i) 0.0 p.Program.instrs
      in
      let max_gate = if Program.two_qubit_count p > 0 then 100.0 else if Program.one_qubit_count p > 0 then 10.0 else 0.0 in
      cp >= max_gate -. 1e-9 && cp <= total +. 1e-9)

let prop_reverse_preserves_critical_path =
  QCheck.Test.make ~name:"UIDG critical path equals QIDG critical path" ~count:100 arb_program
    (fun p ->
      let g = Dag.of_program p in
      match Dag.reverse g with
      | Error _ -> false
      | Ok g' ->
          Float.abs (Dag.critical_path ~delay:paper_delay g -. Dag.critical_path ~delay:paper_delay g')
          < 1e-6)

let prop_gate_levels_are_asap =
  QCheck.Test.make ~name:"gate levels = unit-delay ASAP + 1, declarations 0" ~count:100 arb_program
    (fun p ->
      let g = Dag.of_program p in
      let unit_delay i = if Instr.is_gate i then 1.0 else 0.0 in
      let asap = Dag.asap_times ~delay:unit_delay g in
      let level = Dag.gate_levels g in
      Array.for_all Fun.id
        (Array.mapi
           (fun i instr ->
             if Instr.is_gate instr then float_of_int level.(i) = asap.(i) +. 1.0 else level.(i) = 0)
           p.Program.instrs))

let prop_parse_print_roundtrip =
  QCheck.Test.make ~name:"print/parse round-trip" ~count:100 arb_program (fun p ->
      match Parser.parse ~name:"rt" (Printer.to_string p) with
      | Error _ -> false
      | Ok p' ->
          Program.num_instrs p = Program.num_instrs p'
          && Array.for_all2 Instr.equal p.Program.instrs p'.Program.instrs)

(* Byte mutations of both dialects' texts: parsing is total, and every
   error is positionless or points inside the source. *)
let fuzz_dictionary =
  [| "99999999999999999999"; ";"; "->"; "["; "]"; "{"; "}"; "\""; "#"; "//"; "\n"; ","; "gate ";
     "qreg "; "OPENQASM 2.0;"; "QUBIT "; "(" |]

let gen_mutant =
  QCheck.Gen.(
    let* base = oneofl [ fig3_qasm; bell_openqasm ] in
    let* edits = list_size (1 -- 6) (triple (int_bound 4) nat char) in
    let apply s (op, at, c) =
      let n = String.length s in
      let i = if n = 0 then 0 else at mod n in
      let cut k = String.sub s 0 i ^ String.sub s (min n (i + k)) (n - min n (i + k)) in
      match op with
      | 0 -> if n = 0 then String.make 1 c else String.mapi (fun j x -> if j = i then c else x) s
      | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | 2 -> cut 1
      | 3 -> String.sub s 0 i ^ fuzz_dictionary.(at mod Array.length fuzz_dictionary) ^ String.sub s i (n - i)
      | _ -> cut (at mod 16)
    in
    return (List.fold_left apply base edits))

let prop_parse_total =
  QCheck.Test.make ~name:"parse_located is total and locates its errors" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutant)
    (fun src ->
      let lines = List.length (String.split_on_char '\n' src) in
      match Parser.parse_located src with
      | Ok _ -> true
      | Error e -> e.Parser.line = 0 || (1 <= e.Parser.line && e.Parser.line <= lines && e.Parser.col >= 1))

(* ------------------------------------------------------------ Optimizer *)

let parse_exn src = match Parser.parse src with Ok p -> p | Error e -> Alcotest.failf "parse: %s" e

let test_optimizer_cancels_hh () =
  let p = parse_exn "QUBIT a\nH a\nH a\n" in
  let p' = Optimizer.optimize p in
  check_int "both gates removed" 0 (Program.gate_count p');
  check_int "declaration kept" 1 (Program.num_instrs p')

let test_optimizer_cancels_cnot_pair () =
  let p = parse_exn "QUBIT a\nQUBIT b\nC-X a,b\nC-X a,b\n" in
  check_int "cancelled" 0 (Program.gate_count (Optimizer.optimize p))

let test_optimizer_cz_symmetric () =
  let p = parse_exn "QUBIT a\nQUBIT b\nC-Z a,b\nC-Z b,a\n" in
  check_int "symmetric CZ pair cancelled" 0 (Program.gate_count (Optimizer.optimize p))

let test_optimizer_fuses_ss () =
  let p = parse_exn "QUBIT a\nS a\nS a\n" in
  let p' = Optimizer.optimize p in
  check_int "one gate" 1 (Program.gate_count p');
  check_bool "fused to Z" true
    (Array.exists (fun i -> Instr.equal i (Instr.Gate1 (Gate.Z, 0))) p'.Program.instrs)

let test_optimizer_tt_to_s_cascade () =
  (* T;T;T;T -> S;S -> Z *)
  let p = parse_exn "QUBIT a\nT a\nT a\nT a\nT a\n" in
  let p' = Optimizer.optimize p in
  check_int "one gate" 1 (Program.gate_count p');
  check_bool "fixpoint reaches Z" true
    (Array.exists (fun i -> Instr.equal i (Instr.Gate1 (Gate.Z, 0))) p'.Program.instrs)

let test_optimizer_respects_interleaving () =
  (* H a; C-X a,b; H a must NOT cancel: the CNOT touches a in between *)
  let p = parse_exn "QUBIT a\nQUBIT b\nH a\nC-X a,b\nH a\n" in
  check_int "nothing removed" 3 (Program.gate_count (Optimizer.optimize p))

let test_optimizer_fig3_already_minimal () =
  let p = fig3_program () in
  check_int "no removable gates" 0 (Optimizer.gates_removed p)

let test_optimizer_idempotent () =
  let p = parse_exn "QUBIT a\nQUBIT b\nH a\nH a\nS b\nS b\nC-X a,b\n" in
  let once = Optimizer.optimize p in
  let twice = Optimizer.optimize once in
  check_int "idempotent" (Program.num_instrs once) (Program.num_instrs twice)

let prop_optimizer_preserves_semantics =
  QCheck.Test.make ~name:"optimizer preserves state-vector semantics" ~count:100 arb_program (fun p ->
      let p' = Qasm.Optimizer.optimize p in
      let s = Quantum.Statevec.run_program p and s' = Quantum.Statevec.run_program p' in
      Quantum.Statevec.approx_equal s s')

let prop_optimizer_never_grows =
  QCheck.Test.make ~name:"optimizer never increases gate count" ~count:100 arb_program (fun p ->
      Program.gate_count (Optimizer.optimize p) <= Program.gate_count p)

(* ---------------------------------------------------------------- Basis *)

let test_basis_translation () =
  let p = fig3_program () in
  let p' = Basis.to_cx_basis p in
  check_bool "cx only" true (Basis.is_cx_only p');
  check_bool "original is not" false (Basis.is_cx_only p);
  (* fig3 has 2 CX, 3 CY, 3 CZ: 6 gates gain 2 one-qubit gates each *)
  check_int "extra gates" 12 (Basis.extra_gates p);
  check_int "gate count" (Program.gate_count p + 12) (Program.gate_count p');
  check_int "same 2q count" (Program.two_qubit_count p) (Program.two_qubit_count p')

let prop_basis_preserves_semantics =
  QCheck.Test.make ~name:"cx-basis translation preserves state-vector semantics" ~count:100
    arb_program (fun p ->
      let p' = Basis.to_cx_basis p in
      Basis.is_cx_only p'
      && Quantum.Statevec.approx_equal (Quantum.Statevec.run_program p) (Quantum.Statevec.run_program p'))

(* -------------------------------------------------------------- Metrics *)

let test_metrics_fig3 () =
  let m = Metrics.of_program (fig3_program ()) in
  check_int "qubits" 5 m.Metrics.qubits;
  check_int "gates" 12 m.Metrics.gates;
  check_int "1q" 4 m.Metrics.one_qubit_gates;
  check_int "2q" 8 m.Metrics.two_qubit_gates;
  (* unit-delay depth: H + 5 two-qubit gates *)
  check_int "depth" 6 m.Metrics.depth;
  check_float "critical path" 510.0 m.Metrics.critical_path_us;
  (* the four H gates run in one level *)
  check_int "max parallelism" 4 m.Metrics.max_parallelism;
  check_int "distinct pairs" 8 (List.length m.Metrics.two_qubit_interactions)

let test_metrics_interaction_degree () =
  let m = Metrics.of_program (fig3_program ()) in
  let deg = Array.make 5 0 in
  Metrics.interaction_degree m deg;
  (* q3 and q4 each control three targets *)
  check_int "q3 degree" 3 deg.(3);
  check_int "q4 degree" 3 deg.(4);
  check_int "q0 degree" 3 deg.(0);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Metrics.interaction_degree: length mismatch") (fun () ->
      Metrics.interaction_degree m (Array.make 2 0))

let test_metrics_empty () =
  let p = Program.make_exn ~name:"empty" ~qubit_names:[| "a" |]
      ~instrs:[ Instr.Qubit_decl { qubit = 0; init = None } ] in
  let m = Metrics.of_program p in
  check_int "no gates" 0 m.Metrics.gates;
  check_int "zero depth" 0 m.Metrics.depth;
  check_bool "zero avg" true (m.Metrics.avg_parallelism = 0.0)

let test_metrics_pp () =
  let m = Metrics.of_program (fig3_program ()) in
  check_bool "printable" true (String.length (Format.asprintf "%a" Metrics.pp m) > 0)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "qasm"
    [
      ( "gate",
        [
          Alcotest.test_case "names round-trip" `Quick test_gate_names_roundtrip;
          Alcotest.test_case "aliases" `Quick test_gate_aliases;
          Alcotest.test_case "inverses" `Quick test_gate_inverses;
          Alcotest.test_case "unitarity" `Quick test_gate_unitarity;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "comments and blanks" `Quick test_lexer_comments_and_blanks;
          Alcotest.test_case "error position" `Quick test_lexer_error;
          Alcotest.test_case "dialect detection" `Quick test_dialect_detection;
        ] );
      ( "parser",
        [
          Alcotest.test_case "figure 3" `Quick test_parse_fig3;
          Alcotest.test_case "diagnostics" `Quick test_parse_errors;
          Alcotest.test_case "over-long literals" `Quick test_parse_overflow;
          Alcotest.test_case "missing file" `Quick test_parse_missing_file;
          Alcotest.test_case "either dialect" `Quick test_parse_either_dialect;
          Alcotest.test_case "round-trip figure 3" `Quick test_parse_roundtrip_fig3;
          Alcotest.test_case "listing" `Quick test_listing_numbers;
        ]
        @ qsuite [ prop_parse_total ] );
      ( "program",
        [
          Alcotest.test_case "validation" `Quick test_program_validation;
          Alcotest.test_case "builder" `Quick test_program_builder;
          Alcotest.test_case "builder duplicate" `Quick test_program_builder_duplicate;
          Alcotest.test_case "non-unitary" `Quick test_program_non_unitary;
        ] );
      ( "basis",
        [ Alcotest.test_case "translation" `Quick test_basis_translation ]
        @ qsuite [ prop_basis_preserves_semantics ] );
      ( "metrics",
        [
          Alcotest.test_case "fig3" `Quick test_metrics_fig3;
          Alcotest.test_case "interaction degree" `Quick test_metrics_interaction_degree;
          Alcotest.test_case "empty" `Quick test_metrics_empty;
          Alcotest.test_case "pp" `Quick test_metrics_pp;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "cancels H;H" `Quick test_optimizer_cancels_hh;
          Alcotest.test_case "cancels CNOT pair" `Quick test_optimizer_cancels_cnot_pair;
          Alcotest.test_case "CZ symmetric" `Quick test_optimizer_cz_symmetric;
          Alcotest.test_case "fuses S;S" `Quick test_optimizer_fuses_ss;
          Alcotest.test_case "T^4 cascade" `Quick test_optimizer_tt_to_s_cascade;
          Alcotest.test_case "respects interleaving" `Quick test_optimizer_respects_interleaving;
          Alcotest.test_case "fig3 minimal" `Quick test_optimizer_fig3_already_minimal;
          Alcotest.test_case "idempotent" `Quick test_optimizer_idempotent;
        ]
        @ qsuite [ prop_optimizer_preserves_semantics; prop_optimizer_never_grows ] );
      ( "dag",
        [
          Alcotest.test_case "figure 3 structure" `Quick test_dag_fig3_structure;
          Alcotest.test_case "figure 3 critical path = 510us" `Quick test_dag_fig3_critical_path;
          Alcotest.test_case "reverse (UIDG)" `Quick test_dag_reverse_fig3;
          Alcotest.test_case "reverse non-unitary rejected" `Quick test_dag_reverse_non_unitary;
          Alcotest.test_case "double reverse = identity" `Quick test_dag_double_reverse_identity;
          Alcotest.test_case "dependents" `Quick test_dag_dependents;
          Alcotest.test_case "asap/alap" `Quick test_dag_asap_alap;
          Alcotest.test_case "sources" `Quick test_dag_sources;
          Alcotest.test_case "empty program" `Quick test_dag_empty_program;
        ]
        @ qsuite
            [
              prop_dag_consistent;
              prop_critical_path_bounds;
              prop_reverse_preserves_critical_path;
              prop_gate_levels_are_asap;
              prop_parse_print_roundtrip;
            ] );
    ]
