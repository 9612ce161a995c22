(* Map the paper's six QECC encoding-circuit benchmarks and compare the three
   heuristics (ideal baseline / QUALE / QSPR), i.e. a small-m preview of the
   paper's Table 2.

   Run with:  dune exec examples/qecc_mapping.exe *)

let () =
  Printf.printf "%-12s %10s %10s %10s %12s\n" "circuit" "baseline" "QUALE" "QSPR" "improvement";
  List.iter
    (fun (name, program) ->
      let fabric = Fabric.Layout.quale_45x85 () in
      let config = Qspr.Config.(default |> with_m 5) in
      let ctx =
        match Qspr.Mapper.create ~fabric ~config program with
        | Ok c -> c
        | Error e -> failwith e
      in
      let baseline = Qspr.Mapper.ideal_latency ctx in
      let quale =
        match Qspr.Mapper.map Quale ctx with Ok s -> s.Qspr.Mapper.latency | Error e -> failwith (Qspr.Mapper.error_to_string e)
      in
      let qspr =
        match Qspr.Mapper.map Mvfb ctx with Ok s -> s.Qspr.Mapper.latency | Error e -> failwith (Qspr.Mapper.error_to_string e)
      in
      Printf.printf "%-12s %9.0fus %9.0fus %9.0fus %10.1f%%\n" name baseline quale qspr
        (Qspr.Report.improvement_pct ~quale ~qspr))
    (Circuits.Qecc.all ());
  print_newline ();
  (* every benchmark is a genuine reversible encoder: verify one of them with
     the stabilizer simulator (encode, then uncompute, back to |0...0>) *)
  let p = Circuits.Qecc.c913 () in
  let dag = Qasm.Dag.of_program p in
  let udag = match Qasm.Dag.reverse dag with Ok u -> u | Error e -> failwith e in
  let tableau = Quantum.Stabilizer.create (Qasm.Program.num_qubits p) in
  (match
     ( Quantum.Stabilizer.run_on p tableau,
       Quantum.Stabilizer.run_on (Qasm.Dag.program udag) tableau )
   with
  | Ok (), Ok () -> ()
  | Error e, _ | _, Error e -> failwith e);
  Printf.printf "stabilizer check: [[9,1,3]] encode;uncompute returns to |0...0>: %b\n"
    (Quantum.Stabilizer.is_zero_state tableau)
