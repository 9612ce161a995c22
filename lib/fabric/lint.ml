module F = Analysis_finding

let pass = "fabric"

type trap_load = Roomy | Tight | Starved | Impossible

let trap_load ~traps ~qubits =
  if 2 * traps < qubits then Impossible
  else if traps < qubits then Starved
  else if 2 * qubits > traps then Tight
  else Roomy

let capacity_error ~num_qubits comp =
  let ntraps = Array.length (Component.traps comp) in
  match trap_load ~traps:ntraps ~qubits:num_qubits with
  | Starved | Impossible ->
      Some (Printf.sprintf "fabric has %d traps but the program needs %d qubits" ntraps num_qubits)
  | Roomy | Tight -> None

let capacity_findings ~num_qubits:nq ~traps =
  match trap_load ~traps ~qubits:nq with
  | Starved | Impossible ->
      ( Some
          (F.make ~pass ~kind:"trap-capacity" F.Error
             "fabric has %d traps but the program needs %d qubits" traps nq),
        None )
  | Tight ->
      ( None,
        Some
          (F.make ~pass ~kind:"tight-capacity" F.Warning
             "only %d traps for %d qubits: placement has little slack and congestion will be high"
             traps nq) )
  | Roomy -> (None, None)

(* The layout-only findings, in emission order: at most one of [no-traps] /
   [disconnected], then [no-junctions], then [dead-end]. *)
let structural comp graph =
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  let traps = Component.traps comp in
  let ntraps = Array.length traps in
  if ntraps = 0 then emit (F.make ~pass ~kind:"no-traps" F.Error "fabric has no traps: no gate can execute")
  else begin
    (* connectivity: BFS from trap 0 over the turn-aware routing graph *)
    let seen = Array.make (Graph.num_nodes graph) false in
    let q = Queue.create () in
    Queue.add (Graph.trap_node graph 0) q;
    seen.(Graph.trap_node graph 0) <- true;
    while not (Queue.is_empty q) do
      let n = Queue.pop q in
      List.iter
        (fun (e : Graph.edge) ->
          if not seen.(e.Graph.dst) then begin
            seen.(e.Graph.dst) <- true;
            Queue.add e.Graph.dst q
          end)
        (Graph.adj graph n)
    done;
    let unreachable =
      Array.to_list traps
      |> List.filter (fun (t : Component.trap) -> not seen.(Graph.trap_node graph t.Component.tid))
    in
    if unreachable <> [] then
      emit
        (F.make ~pass ~kind:"disconnected"
           ~loc:(F.Cell (List.hd unreachable).Component.tpos)
           F.Error "fabric is disconnected: %d of %d traps unreachable from trap 0 (e.g. the trap at %s)"
           (List.length unreachable) ntraps
           (Ion_util.Coord.to_string (List.hd unreachable).Component.tpos))
  end;
  if Array.length (Component.junctions comp) = 0 then
    emit (F.make ~pass ~kind:"no-junctions" F.Hint "no junctions: a linear fabric (no turns are possible)");
  (* dead-end channel segments: fewer than two junction neighbours *)
  let segments = Component.segments comp in
  let serves_tap = Array.make (Array.length segments) false in
  Array.iter
    (fun (t : Component.trap) ->
      match Component.segment_at comp t.Component.tap with
      | Some s -> serves_tap.(s) <- true
      | None -> ())
    traps;
  let dead_ends = ref 0 in
  Array.iter
    (fun (s : Component.segment) ->
      let cells = s.Component.cells in
      let len = Array.length cells in
      let dir_lo, dir_hi =
        match s.Component.orientation with
        | Cell.Horizontal -> (Ion_util.Coord.West, Ion_util.Coord.East)
        | Cell.Vertical -> (Ion_util.Coord.North, Ion_util.Coord.South)
      in
      let junction_end c step = Component.junction_at comp (Ion_util.Coord.step c step) <> None in
      let ends =
        (if junction_end cells.(0) dir_lo then 1 else 0)
        + if junction_end cells.(len - 1) dir_hi then 1 else 0
      in
      if ends < 2 && not serves_tap.(s.Component.sid) then incr dead_ends)
    segments;
  if !dead_ends > 0 then
    emit
      (F.make ~pass ~kind:"dead-end" F.Warning "%d dead-end channel segment(s) serve no trap: wasted fabric area"
         !dead_ends);
  List.rev !findings
