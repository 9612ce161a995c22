type node = { id : int; instr : Instr.t; preds : int list; succs : int list }

type t = { program : Program.t; nodes : node array; in_degree : int array }

(* Dependency semantics: the control operand of a two-qubit gate is a read,
   the target (and the operand of any one-qubit instruction) a write.  Two
   gates sharing only a control qubit commute and get no edge — this is what
   makes the paper's [[5,1,3]] ideal baseline 510us rather than 610us.  The
   fabric simulator still serializes them physically (one ion cannot occupy
   two traps), but the *graph* is the paper's. *)
let of_program (program : Program.t) =
  let n = Array.length program.instrs in
  let nq = Program.num_qubits program in
  let last_writer = Array.make nq (-1) in
  let readers_since = Array.make nq [] in
  let preds = Array.make n [] and succs = Array.make n [] in
  let reads_writes = function
    | Instr.Qubit_decl { qubit; _ } -> ([], [ qubit ])
    | Instr.Gate1 (_, q) -> ([], [ q ])
    | Instr.Gate2 (_, c, t) -> ([ c ], [ t ])
  in
  for i = 0 to n - 1 do
    let reads, writes = reads_writes program.instrs.(i) in
    let deps = ref [] in
    let dep j = if j >= 0 && j <> i then deps := j :: !deps in
    List.iter (fun q -> dep last_writer.(q)) reads;
    List.iter
      (fun q ->
        dep last_writer.(q);
        List.iter dep readers_since.(q))
      writes;
    let ps = List.sort_uniq compare !deps in
    preds.(i) <- ps;
    List.iter (fun p -> succs.(p) <- i :: succs.(p)) ps;
    List.iter (fun q -> readers_since.(q) <- i :: readers_since.(q)) reads;
    List.iter
      (fun q ->
        last_writer.(q) <- i;
        readers_since.(q) <- [])
      writes
  done;
  let nodes =
    Array.init n (fun i ->
        { id = i; instr = program.instrs.(i); preds = preds.(i); succs = List.rev succs.(i) })
  in
  { program; nodes; in_degree = Array.map List.length preds }

let program t = t.program
let nodes t = t.nodes
let num_nodes t = Array.length t.nodes
let node t i = t.nodes.(i)
let in_degrees t = Array.copy t.in_degree

let sources t =
  Array.to_list t.nodes |> List.filter (fun n -> n.preds = []) |> List.map (fun n -> n.id)

let sinks t =
  Array.to_list t.nodes |> List.filter (fun n -> n.succs = []) |> List.map (fun n -> n.id)

let reverse t =
  let p = t.program in
  let decls, gates =
    Array.fold_right
      (fun i (ds, gs) -> if Instr.is_gate i then (ds, i :: gs) else (i :: ds, gs))
      p.instrs ([], [])
  in
  let rec invert acc = function
    | [] -> Ok acc (* folding over gates in order, consing reverses them *)
    | g :: rest -> (
        match Instr.inverse g with
        | Some g' -> invert (g' :: acc) rest
        | None -> Error (Printf.sprintf "non-unitary instruction has no inverse: %s" (Printer.instr_to_string p g)))
  in
  match invert [] gates with
  | Error _ as e -> e
  | Ok inverted -> (
      match
        Program.make ~name:(p.name ^ "-uncompute") ~qubit_names:p.qubit_names ~instrs:(decls @ inverted)
      with
      | Error _ as e -> e
      | Ok p' -> Ok (of_program p'))

let longest_to_sink ~delay t =
  let n = num_nodes t in
  let dist = Array.make n 0.0 in
  (* node ids are topologically ordered, so a single backward sweep suffices *)
  for i = n - 1 downto 0 do
    let d = delay t.nodes.(i).instr in
    let best = List.fold_left (fun acc s -> Float.max acc dist.(s)) 0.0 t.nodes.(i).succs in
    dist.(i) <- d +. best
  done;
  dist

let critical_path ~delay t =
  if num_nodes t = 0 then 0.0
  else Array.fold_left Float.max 0.0 (longest_to_sink ~delay t)

let dependents t =
  let n = num_nodes t in
  (* transitive successor counts via bitsets, swept backward over the
     topological order *)
  let reach = Array.init n (fun _ -> Ion_util.Bitv.create n) in
  for i = n - 1 downto 0 do
    List.iter
      (fun s ->
        Ion_util.Bitv.set reach.(i) s true;
        Ion_util.Bitv.or_into ~dst:reach.(i) ~src:reach.(s))
      t.nodes.(i).succs
  done;
  Array.map Ion_util.Bitv.popcount reach

let asap_times ~delay t =
  let n = num_nodes t in
  let start = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let ready =
      List.fold_left
        (fun acc p -> Float.max acc (start.(p) +. delay t.nodes.(p).instr))
        0.0 t.nodes.(i).preds
    in
    start.(i) <- ready
  done;
  start

let gate_levels t =
  let level = Array.make (num_nodes t) 0 in
  Array.iteri
    (fun i nd ->
      if Instr.is_gate nd.instr then
        level.(i) <- List.fold_left (fun acc p -> Int.max acc (level.(p) + 1)) 1 nd.preds)
    t.nodes;
  level

let alap_times ~delay t =
  let n = num_nodes t in
  let total = critical_path ~delay t in
  let lts = longest_to_sink ~delay t in
  Array.init n (fun i -> total -. lts.(i))

let check_acyclic_consistency t =
  let ok = ref true in
  Array.iter
    (fun nd ->
      List.iter (fun p -> if p >= nd.id then ok := false) nd.preds;
      List.iter (fun s -> if s <= nd.id then ok := false) nd.succs;
      List.iter (fun p -> if not (List.mem nd.id t.nodes.(p).succs) then ok := false) nd.preds;
      List.iter (fun s -> if not (List.mem nd.id t.nodes.(s).preds) then ok := false) nd.succs)
    t.nodes;
  !ok
