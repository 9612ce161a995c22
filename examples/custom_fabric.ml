(* Define your own ion-trap fabric as ASCII art, map a circuit onto it, and
   visualize the placement and a route.

   Fabric format: J = junction, - / | (or C) = channel, T = trap, space =
   empty.  Traps must touch a channel or junction.

   Run with:  dune exec examples/custom_fabric.exe *)

let fabric_art =
  {|  |     |     |
  J-----J-----J
  |  T  |  T  |
  |     |     |
  |  T  |  T  |
  J-----J-----J
  |     |     |
|}

let circuit =
  {|QUBIT x,0
QUBIT y,0
QUBIT z,0
H x
C-X x,y
C-Z y,z
C-Y x,z
|}

let () =
  let fabric =
    match Fabric.Layout.parse fabric_art with Ok l -> l | Error e -> failwith ("fabric: " ^ e)
  in
  let comp =
    match Fabric.Component.extract fabric with Ok c -> c | Error e -> failwith ("extract: " ^ e)
  in
  Printf.printf "custom fabric: %d junctions, %d channel segments, %d traps\n\n"
    (Array.length (Fabric.Component.junctions comp))
    (Array.length (Fabric.Component.segments comp))
    (Array.length (Fabric.Component.traps comp));

  let program =
    match Qasm.Parser.parse ~name:"demo" circuit with Ok p -> p | Error e -> failwith e
  in
  let ctx =
    match Qspr.Mapper.create ~fabric ~config:Qspr.Config.(default |> with_m 4) program with
    | Ok c -> c
    | Error e -> failwith e
  in
  let sol = match Qspr.Mapper.map Mvfb ctx with Ok s -> s | Error e -> failwith (Qspr.Mapper.error_to_string e) in

  (* initial placement rendered on the fabric *)
  let traps = Fabric.Component.traps comp in
  let qubit_marks =
    Array.to_list
      (Array.mapi (fun q tid -> (q, traps.(tid).Fabric.Component.tpos)) sol.Qspr.Mapper.initial_placement)
  in
  Printf.printf "initial placement (digits are qubit indices):\n%s\n"
    (Fabric.Render.with_qubits fabric qubit_marks);
  Printf.printf "mapped latency: %.0f us (ideal baseline %.0f us)\n\n" sol.Qspr.Mapper.latency
    (Qspr.Mapper.ideal_latency ctx);

  (* route qubit 0's journey: filter its movement commands from the trace *)
  let moves = Simulator.Trace.qubit_commands sol.Qspr.Mapper.trace 0 in
  let cells =
    List.filter_map
      (function Router.Micro.Move { to_; _ } -> Some to_ | _ -> None)
      moves
  in
  (match sol.Qspr.Mapper.initial_placement.(0) with
  | tid ->
      let start = traps.(tid).Fabric.Component.tpos in
      Printf.printf "qubit 0's route over the whole computation:\n%s\n"
        (Fabric.Render.path fabric (start :: cells)));
  Printf.printf "%s\n" Fabric.Render.legend
