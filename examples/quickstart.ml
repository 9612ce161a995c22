(* Quickstart: map a QASM program onto the paper's 45x85 ion-trap fabric.

   Run with:  dune exec examples/quickstart.exe *)

let qasm_source =
  {|# a 3-qubit GHZ-style preparation
QUBIT a,0
QUBIT b,0
QUBIT c,0
H a
C-X a,b
C-X b,c
|}

let () =
  (* 1. parse the QASM text *)
  let program =
    match Qasm.Parser.parse ~name:"ghz3" qasm_source with
    | Ok p -> p
    | Error e -> failwith ("parse error: " ^ e)
  in
  Printf.printf "parsed %S: %d qubits, %d gates\n" program.Qasm.Program.name
    (Qasm.Program.num_qubits program)
    (Qasm.Program.gate_count program);

  (* 2. build a mapping context on the paper's fabric (Figure 4) *)
  let fabric = Fabric.Layout.quale_45x85 () in
  let config = Qspr.Config.(default |> with_m 10 |> with_seed 7) in
  let ctx =
    match Qspr.Mapper.create ~fabric ~config program with
    | Ok c -> c
    | Error e -> failwith e
  in

  (* 3. the ideal lower bound: critical path with zero routing cost *)
  Printf.printf "ideal baseline latency: %.0f us\n" (Qspr.Mapper.ideal_latency ctx);

  (* 4. run the full QSPR flow (MVFB placement, turn-aware routing) *)
  let sol =
    match Qspr.Mapper.map_mvfb ctx with Ok s -> s | Error e -> failwith (Qspr.Mapper.error_to_string e)
  in
  Printf.printf "QSPR mapped latency   : %.0f us (after %d placement runs)\n" sol.Qspr.Mapper.latency
    sol.Qspr.Mapper.placement_runs;

  (* 5. inspect the micro-command trace the controller would execute *)
  Printf.printf "\nmicro-command trace (%d moves, %d turns, %d gates):\n%s"
    (Simulator.Trace.move_count sol.Qspr.Mapper.trace)
    (Simulator.Trace.turn_count sol.Qspr.Mapper.trace)
    (Simulator.Trace.gate_count sol.Qspr.Mapper.trace)
    (Simulator.Trace.to_string sol.Qspr.Mapper.trace);

  (* 6. independently certify the trace against the physical rules *)
  let cert = Analysis.Certify.of_solution ctx sol in
  Printf.printf "\ntrace certification: %s\n" (if cert.Analysis.Certify.valid then "OK" else "FAILED")
