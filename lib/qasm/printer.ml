let instr_to_string p = function
  | Instr.Qubit_decl { qubit; init = None } -> Printf.sprintf "QUBIT %s" (Program.qubit_name p qubit)
  | Instr.Qubit_decl { qubit; init = Some v } ->
      Printf.sprintf "QUBIT %s,%d" (Program.qubit_name p qubit) v
  | Instr.Gate1 (g, q) -> Printf.sprintf "%s %s" (Gate.g1_name g) (Program.qubit_name p q)
  | Instr.Gate2 (g, c, t) ->
      Printf.sprintf "%s %s,%s" (Gate.g2_name g) (Program.qubit_name p c) (Program.qubit_name p t)

let to_string p =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" p.Program.name);
  Array.iter
    (fun i ->
      Buffer.add_string buf (instr_to_string p i);
      Buffer.add_char buf '\n')
    p.Program.instrs;
  Buffer.contents buf

let pp ppf p = Format.pp_print_string ppf (to_string p)

let listing p =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun idx i -> Buffer.add_string buf (Printf.sprintf "%3d  %s\n" (idx + 1) (instr_to_string p i)))
    p.Program.instrs;
  Buffer.contents buf

let to_openqasm (p : Program.t) =
  let buf = Buffer.create 512 in
  let nq = Program.num_qubits p in
  Buffer.add_string buf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  Buffer.add_string buf (Printf.sprintf "qreg q[%d];\n" nq);
  let has_measure =
    Array.exists (function Instr.Gate1 (Gate.Meas_z, _) -> true | _ -> false) p.Program.instrs
  in
  if has_measure then Buffer.add_string buf (Printf.sprintf "creg c[%d];\n" nq);
  Array.iter
    (fun instr ->
      match instr with
      | Instr.Qubit_decl { qubit; init = Some 1 } -> Buffer.add_string buf (Printf.sprintf "x q[%d];\n" qubit)
      | Instr.Qubit_decl _ -> ()
      | Instr.Gate1 (Gate.Meas_z, q) -> Buffer.add_string buf (Printf.sprintf "measure q[%d] -> c[%d];\n" q q)
      | Instr.Gate1 (Gate.Prep_z, q) -> Buffer.add_string buf (Printf.sprintf "reset q[%d];\n" q)
      | Instr.Gate1 (g, q) ->
          Buffer.add_string buf (Printf.sprintf "%s q[%d];\n" (String.lowercase_ascii (Gate.g1_name g)) q)
      | Instr.Gate2 (g, c, t) ->
          let name = match g with Gate.CX -> "cx" | Gate.CY -> "cy" | Gate.CZ -> "cz" in
          Buffer.add_string buf (Printf.sprintf "%s q[%d],q[%d];\n" name c t))
    p.Program.instrs;
  Buffer.contents buf
