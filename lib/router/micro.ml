module Coord = Ion_util.Coord
module Graph = Fabric.Graph

type command =
  | Move of { qubit : int; from_ : Coord.t; to_ : Coord.t; start : float; finish : float }
  | Turn of { qubit : int; at : Coord.t; start : float; finish : float }
  | Gate_start of { instr_id : int; trap : Coord.t; qubits : int list; time : float }
  | Gate_end of { instr_id : int; trap : Coord.t; qubits : int list; time : float }

let time = function
  | Move { start; _ } | Turn { start; _ } -> start
  | Gate_start { time; _ } | Gate_end { time; _ } -> time

let qubits_of = function
  | Move { qubit; _ } | Turn { qubit; _ } -> [ qubit ]
  | Gate_start { qubits; _ } | Gate_end { qubits; _ } -> qubits

let reverse_command ~total = function
  | Move { qubit; from_; to_; start; finish } ->
      Move { qubit; from_ = to_; to_ = from_; start = total -. finish; finish = total -. start }
  | Turn { qubit; at; start; finish } ->
      Turn { qubit; at; start = total -. finish; finish = total -. start }
  | Gate_start { instr_id; trap; qubits; time } ->
      Gate_end { instr_id; trap; qubits; time = total -. time }
  | Gate_end { instr_id; trap; qubits; time } ->
      Gate_start { instr_id; trap; qubits; time = total -. time }

let pp ppf = function
  | Move { qubit; from_; to_; start; finish } ->
      Format.fprintf ppf "%8.1f-%8.1f  move  q%d %a -> %a" start finish qubit Coord.pp from_ Coord.pp to_
  | Turn { qubit; at; start; finish } ->
      Format.fprintf ppf "%8.1f-%8.1f  turn  q%d at %a" start finish qubit Coord.pp at
  | Gate_start { instr_id; trap; qubits; time } ->
      Format.fprintf ppf "%8.1f           gate+ #%d at %a on [%s]" time instr_id Coord.pp trap
        (String.concat ";" (List.map string_of_int qubits))
  | Gate_end { instr_id; trap; qubits; time } ->
      Format.fprintf ppf "%8.1f           gate- #%d at %a on [%s]" time instr_id Coord.pp trap
        (String.concat ";" (List.map string_of_int qubits))

(* ------------------------------------------------------------- trace arena *)

module Builder = struct
  (* Commands-in-flight live as parallel flat arrays (column layout in
     doc/memory.md): float columns are unboxed float arrays, coordinate
     columns store the graph's shared Coord records.  The [command] variants
     exist only once, at [to_commands] — one exact-size allocation per trace
     instead of a cons + record per emission. *)

  let tag_move = 0
  let tag_turn = 1
  let tag_gate_start = 2
  let tag_gate_end = 3

  type t = {
    mutable tag : int array;
    mutable qa : int array; (* qubit (moves/turns) or instr_id (gates) *)
    mutable t0 : float array; (* start / gate time *)
    mutable t1 : float array; (* finish; unused for gates *)
    mutable ca : Coord.t array; (* from_ / at / trap *)
    mutable cb : Coord.t array; (* to_; unused otherwise *)
    mutable q0 : int array; (* gate operand, -1 = absent *)
    mutable q1 : int array;
    mutable len : int;
    mutable materialized : int; (* [to_commands] calls so far *)
  }

  let origin = Coord.make 0 0

  let create () =
    {
      tag = [||];
      qa = [||];
      t0 = [||];
      t1 = [||];
      ca = [||];
      cb = [||];
      q0 = [||];
      q1 = [||];
      len = 0;
      materialized = 0;
    }

  let reset b = b.len <- 0

  let length b = b.len

  let materialized b = b.materialized

  let grow b =
    let cap = Int.max 256 (2 * Array.length b.tag) in
    let g_int a = let n = Array.make cap 0 in Array.blit a 0 n 0 b.len; n in
    let g_float a = let n = Array.make cap 0.0 in Array.blit a 0 n 0 b.len; n in
    let g_coord a = let n = Array.make cap origin in Array.blit a 0 n 0 b.len; n in
    b.tag <- g_int b.tag;
    b.qa <- g_int b.qa;
    b.t0 <- g_float b.t0;
    b.t1 <- g_float b.t1;
    b.ca <- g_coord b.ca;
    b.cb <- g_coord b.cb;
    b.q0 <- g_int b.q0;
    b.q1 <- g_int b.q1

  let push b ~tag ~qa ~t0 ~t1 ~ca ~cb ~q0 ~q1 =
    if b.len >= Array.length b.tag then grow b;
    let i = b.len in
    b.tag.(i) <- tag;
    b.qa.(i) <- qa;
    b.t0.(i) <- t0;
    b.t1.(i) <- t1;
    b.ca.(i) <- ca;
    b.cb.(i) <- cb;
    b.q0.(i) <- q0;
    b.q1.(i) <- q1;
    b.len <- i + 1

  let add_move b ~qubit ~from_ ~to_ ~start ~finish =
    push b ~tag:tag_move ~qa:qubit ~t0:start ~t1:finish ~ca:from_ ~cb:to_ ~q0:(-1) ~q1:(-1)

  let add_turn b ~qubit ~at ~start ~finish =
    push b ~tag:tag_turn ~qa:qubit ~t0:start ~t1:finish ~ca:at ~cb:at ~q0:(-1) ~q1:(-1)

  let add_gate_start b ~instr_id ~trap ~q0 ~q1 ~time =
    push b ~tag:tag_gate_start ~qa:instr_id ~t0:time ~t1:time ~ca:trap ~cb:trap ~q0 ~q1

  let add_gate_end b ~instr_id ~trap ~q0 ~q1 ~time =
    push b ~tag:tag_gate_end ~qa:instr_id ~t0:time ~t1:time ~ca:trap ~cb:trap ~q0 ~q1

  (* One command per path step, departing at [start]: the clock advances by
     t_turn per junction turn and t_move per move. *)
  let lower_path b graph (tm : Timing.t) ~qubit ~start (p : Path.t) =
    let clock = ref start in
    let pos = ref (Graph.node_pos graph (Path.src p)) in
    for i = 0 to Path.step_count p - 1 do
      let t0 = !clock in
      if Path.step_is_turn p i then begin
        clock := t0 +. tm.Timing.t_turn;
        add_turn b ~qubit ~at:!pos ~start:t0 ~finish:!clock
      end
      else begin
        let dst_pos = Graph.node_pos graph (Path.step_dst p i) in
        clock := t0 +. tm.Timing.t_move;
        add_move b ~qubit ~from_:!pos ~to_:dst_pos ~start:t0 ~finish:!clock;
        pos := dst_pos
      end
    done;
    !clock

  let command_at b i =
    let qubits () = if b.q1.(i) >= 0 then [ b.q0.(i); b.q1.(i) ] else [ b.q0.(i) ] in
    match b.tag.(i) with
    | 0 -> Move { qubit = b.qa.(i); from_ = b.ca.(i); to_ = b.cb.(i); start = b.t0.(i); finish = b.t1.(i) }
    | 1 -> Turn { qubit = b.qa.(i); at = b.ca.(i); start = b.t0.(i); finish = b.t1.(i) }
    | 2 -> Gate_start { instr_id = b.qa.(i); trap = b.ca.(i); qubits = qubits (); time = b.t0.(i) }
    | _ -> Gate_end { instr_id = b.qa.(i); trap = b.ca.(i); qubits = qubits (); time = b.t0.(i) }

  (* Emission order under a stable sort by timestamp — exactly what
     [List.sort Float.compare] (stable) over the emission-order list
     produced before the arena, so traces stay bit-identical. *)
  let to_commands b =
    b.materialized <- b.materialized + 1;
    let n = b.len in
    let order = Array.init n Fun.id in
    let t0 = b.t0 in
    Array.stable_sort (fun i j -> Float.compare t0.(i) t0.(j)) order;
    let acc = ref [] in
    for i = n - 1 downto 0 do
      acc := command_at b order.(i) :: !acc
    done;
    !acc

  (* One builder per domain: engine runs on a domain are strictly
     sequential and [to_commands] materializes fresh lists, so reusing the
     columns across runs (and across service jobs) is safe. *)
  let key = Domain.DLS.new_key create

  let domain_local () = Domain.DLS.get key
end
