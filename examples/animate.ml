(* Visualize a mapping: per-qubit Gantt chart of the schedule plus a
   flip-book of ion positions on the fabric over time.

   Run with:  dune exec examples/animate.exe *)

let () =
  let program = Circuits.Qecc.c513 () in
  let fabric = Fabric.Layout.quale_45x85 () in
  let ctx =
    match Qspr.Mapper.create ~fabric ~config:Qspr.Config.(default |> with_m 5) program with
    | Ok c -> c
    | Error e -> failwith e
  in
  let sol = match Qspr.Mapper.map Mvfb ctx with Ok s -> s | Error e -> failwith (Qspr.Mapper.error_to_string e) in
  let nq = Qasm.Program.num_qubits program in

  Printf.printf "%s mapped in %.0f us (ideal %.0f us)\n\n" program.Qasm.Program.name
    sol.Qspr.Mapper.latency (Qspr.Mapper.ideal_latency ctx);

  (* schedule at a glance *)
  print_string (Simulator.Gantt.render ~width:76 ~num_qubits:nq sol.Qspr.Mapper.trace);
  print_newline ();

  (* noise exposure breakdown per qubit *)
  let exposures = Noise.Exposure.of_trace ~num_qubits:nq sol.Qspr.Mapper.trace in
  Array.iter (fun e -> Format.printf "%a@." Noise.Exposure.pp e) exposures;
  Printf.printf "estimated success probability: %.4f\n\n"
    (Noise.Estimate.success_probability Noise.Model.default exposures);

  (* flip-book: ion positions at four instants, cropped to the center of the
     fabric where the action is *)
  let comp = Qspr.Mapper.component ctx in
  let traps = Fabric.Component.traps comp in
  let initial =
    Array.map (fun tid -> traps.(tid).Fabric.Component.tpos) sol.Qspr.Mapper.initial_placement
  in
  let replay = Simulator.Replay.create ~initial sol.Qspr.Mapper.trace in
  (* crop each frame to the bounding box of everywhere the ions ever are *)
  let all_positions =
    List.concat_map
      (fun f -> Array.to_list (Simulator.Replay.positions_at replay (f *. sol.Qspr.Mapper.latency /. 4.0)))
      [ 0.0; 1.0; 2.0; 3.0; 4.0 ]
  in
  let xs = List.map (fun (c : Ion_util.Coord.t) -> c.Ion_util.Coord.x) all_positions in
  let ys = List.map (fun (c : Ion_util.Coord.t) -> c.Ion_util.Coord.y) all_positions in
  let pad = 3 in
  let x0 = max 0 (List.fold_left min max_int xs - pad) in
  let x1 = min (Fabric.Layout.width fabric - 1) (List.fold_left max 0 xs + pad) in
  let y0 = max 0 (List.fold_left min max_int ys - pad) in
  let y1 = min (Fabric.Layout.height fabric - 1) (List.fold_left max 0 ys + pad) in
  let crop s =
    String.split_on_char '\n' s
    |> List.filteri (fun i _ -> i >= y0 && i <= y1)
    |> List.map (fun row -> if String.length row > x1 then String.sub row x0 (x1 - x0 + 1) else row)
    |> String.concat "\n"
  in
  List.iter
    (fun (time, frame) -> Printf.printf "t = %.0f us:\n%s\n\n" time (crop frame))
    (Simulator.Replay.frames ~steps:3 replay fabric);
  let dist = Simulator.Replay.distance_traveled replay in
  Array.iteri (fun q d -> Printf.printf "qubit %d traveled %d cells\n" q d) dist
