module Coord = Ion_util.Coord

type node = int

type edge_kind = Chan of int | Junc of int | Turn of int | Tap of int

type edge = { dst : node; kind : edge_kind }

(* Adjacency in CSR (compressed sparse row) form: the out-edges of node [n]
   occupy indices [row_start.(n) .. row_start.(n+1) - 1] of the flat
   [edge_dst]/[edge_kinds] arrays.  The router's Dijkstra/A* inner loop scans
   these with plain int indexing — no list traversal and no per-query edge
   allocation; [adj] rebuilds the list view for diagnostics and tests.  Three
   more CSR indexes over the same edge numbering are built once here: the
   in-edges of each node (the router's destination-seal check), the edges
   of each segment and junction (refreshed in place when that resource's
   congestion changes) and the edges entering each segment's pocket (the
   router's pocket-seal check). *)
type t = {
  component : Component.t;
  num_nodes : int;
  row_start : int array; (* length num_nodes + 1 *)
  edge_dst : int array;
  edge_kinds : edge_kind array;
  edge_src : int array; (* source node of each CSR edge *)
  (* reverse CSR: the in-edges of node [n] are the forward edge indices
     [in_edges.(in_start.(n)) .. in_edges.(in_start.(n+1) - 1)] *)
  in_start : int array; (* length num_nodes + 1 *)
  in_edges : int array;
  (* resource CSR: the edges whose weight a resource's congestion sets,
     [Chan r] and [Junc r] edges under row [r] *)
  res_start : int array; (* length Component.num_resources + 1 *)
  res_edges : int array;
  (* pocket CSR: the edges entering segment [s]'s pocket from outside *)
  pocket_start : int array; (* length num_segments + 1 *)
  pocket_edges : int array;
  trap_segments : int array; (* tap segment of each trap, -1 on a junction *)
  trap_nodes : node array;
  positions : Coord.t array;
  orientations : Cell.orientation option array;
}

let component t = t.component
let num_nodes t = t.num_nodes

let adj t n =
  let acc = ref [] in
  for i = t.row_start.(n + 1) - 1 downto t.row_start.(n) do
    acc := { dst = t.edge_dst.(i); kind = t.edge_kinds.(i) } :: !acc
  done;
  !acc

let succ_start t n = t.row_start.(n)
let succ_stop t n = t.row_start.(n + 1)
let succ_dst t i = t.edge_dst.(i)
let succ_kind t i = t.edge_kinds.(i)
let row_start t = t.row_start
let edge_dst t = t.edge_dst
let edge_at t i = { dst = t.edge_dst.(i); kind = t.edge_kinds.(i) }
let edge_src t i = t.edge_src.(i)

let pred_start t n = t.in_start.(n)
let pred_stop t n = t.in_start.(n + 1)
let pred_edge t k = t.in_edges.(k)

let resource_edges_start t r = t.res_start.(r)
let resource_edges_stop t r = t.res_start.(r + 1)
let resource_edge t k = t.res_edges.(k)

let pocket_edges_start t s = t.pocket_start.(s)
let pocket_edges_stop t s = t.pocket_start.(s + 1)
let pocket_edge t k = t.pocket_edges.(k)
let trap_segment t tid = t.trap_segments.(tid)

let trap_node t tid = t.trap_nodes.(tid)
let node_pos t n = t.positions.(n)
let node_orientation t n = t.orientations.(n)

let pp_node t ppf n =
  let pos = t.positions.(n) in
  let o = match t.orientations.(n) with Some Cell.Horizontal -> "H" | Some Cell.Vertical -> "V" | None -> "T" in
  Format.fprintf ppf "%a%s" Coord.pp pos o

let num_edges t = Array.length t.edge_dst

(* node numbering: channel cell -> 1 node; junction cell -> H node then
   V node; trap -> 1 node *)
let build comp =
  let lay = Component.layout comp in
  let chan_node = Coord.Tbl.create 256 in
  let junc_node_h = Coord.Tbl.create 64 in
  let junc_node_v = Coord.Tbl.create 64 in
  let next = ref 0 in
  let fresh () =
    let n = !next in
    incr next;
    n
  in
  let positions = ref [] in
  let orientations = ref [] in
  let register pos o =
    let n = fresh () in
    positions := pos :: !positions;
    orientations := o :: !orientations;
    n
  in
  Layout.iter lay (fun c cell ->
      match cell with
      | Cell.Channel o -> Coord.Tbl.replace chan_node c (register c (Some o))
      | Cell.Junction ->
          Coord.Tbl.replace junc_node_h c (register c (Some Cell.Horizontal));
          Coord.Tbl.replace junc_node_v c (register c (Some Cell.Vertical))
      | Cell.Empty | Cell.Trap -> ());
  let traps = Component.traps comp in
  let trap_nodes =
    Array.map (fun (tr : Component.trap) -> register tr.Component.tpos None) traps
  in
  let n = !next in
  let adj = Array.make n [] in
  let add_edge src dst kind = adj.(src) <- { dst; kind } :: adj.(src) in
  (* node of a walkable cell when approached along [o]; junctions expose the
     matching orientation node *)
  let node_for c o =
    match Layout.get lay c with
    | Cell.Channel co when co = o -> Coord.Tbl.find_opt chan_node c
    | Cell.Channel _ -> None
    | Cell.Junction ->
        Coord.Tbl.find_opt (if o = Cell.Horizontal then junc_node_h else junc_node_v) c
    | Cell.Empty | Cell.Trap -> None
  in
  (* the step cost of entering cell [c]: channel or junction resource *)
  let entry_kind c =
    let r = Component.cell_code comp c in
    if r < 0 then None else if Component.is_segment comp r then Some (Chan r) else Some (Junc r)
  in
  (* movement edges: for each walkable cell, connect to east and south
     neighbours along the corresponding orientation (both directions) *)
  Layout.iter lay (fun c cell ->
      if Cell.is_walkable cell then
        List.iter
          (fun dir ->
            let o = Cell.orientation_of_dir dir in
            let c' = Coord.step c dir in
            match (node_for c o, node_for c' o, entry_kind c', entry_kind c) with
            | Some a, Some b, Some kb, Some ka ->
                add_edge a b kb;
                add_edge b a ka
            | _ -> ())
          [ Coord.East; Coord.South ]);
  (* turn edges inside junctions *)
  Layout.iter lay (fun c cell ->
      if Cell.equal cell Cell.Junction then
        match (Coord.Tbl.find_opt junc_node_h c, Coord.Tbl.find_opt junc_node_v c) with
        | Some h, Some v ->
            let r = Component.cell_code comp c in
            add_edge h v (Turn r);
            add_edge v h (Turn r)
        | _ -> ());
  (* tap edges: trap <-> its tap cell; junction taps connect to both
     orientation nodes.  Leaving the trap steps INTO the tap cell, so that
     direction consumes the cell's channel/junction resource; only the hop
     into the trap is a free Tap edge. *)
  Array.iteri
    (fun tid (tr : Component.trap) ->
      let tn = trap_nodes.(tid) in
      let link cell_node =
        (match entry_kind tr.Component.tap with
        | Some kind -> add_edge tn cell_node kind
        | None -> add_edge tn cell_node (Tap tid));
        add_edge cell_node tn (Tap tid)
      in
      match Layout.get lay tr.Component.tap with
      | Cell.Channel o -> (
          match node_for tr.Component.tap o with Some cn -> link cn | None -> ())
      | Cell.Junction ->
          Option.iter link (Coord.Tbl.find_opt junc_node_h tr.Component.tap);
          Option.iter link (Coord.Tbl.find_opt junc_node_v tr.Component.tap)
      | Cell.Empty | Cell.Trap -> ())
    traps;
  (* pack the per-node lists into CSR, preserving each node's list order *)
  let row_start = Array.make (n + 1) 0 in
  for src = 0 to n - 1 do
    row_start.(src + 1) <- row_start.(src) + List.length adj.(src)
  done;
  let total = row_start.(n) in
  let edge_dst = Array.make total 0 in
  let edge_kinds = Array.make total (Tap 0) in
  let edge_src = Array.make total 0 in
  for src = 0 to n - 1 do
    List.iteri
      (fun i e ->
        edge_dst.(row_start.(src) + i) <- e.dst;
        edge_kinds.(row_start.(src) + i) <- e.kind;
        edge_src.(row_start.(src) + i) <- src)
      adj.(src)
  done;
  (* counting-sort the edge indices by a row key into a CSR pair; rows
     list their edges in ascending edge-index order, and a negative key
     leaves the edge out *)
  let bucket rows key =
    let start = Array.make (rows + 1) 0 in
    for i = 0 to total - 1 do
      let r = key i in
      if r >= 0 then start.(r + 1) <- start.(r + 1) + 1
    done;
    for r = 0 to rows - 1 do
      start.(r + 1) <- start.(r + 1) + start.(r)
    done;
    let fill = Array.sub start 0 rows in
    let edges = Array.make start.(rows) 0 in
    for i = 0 to total - 1 do
      let r = key i in
      if r >= 0 then begin
        edges.(fill.(r)) <- i;
        fill.(r) <- fill.(r) + 1
      end
    done;
    (start, edges)
  in
  let in_start, in_edges = bucket n (fun i -> edge_dst.(i)) in
  let res_start, res_edges =
    bucket (Component.num_resources comp) (fun i ->
        match edge_kinds.(i) with Chan r | Junc r -> r | Turn _ | Tap _ -> -1)
  in
  let positions = Array.of_list (List.rev !positions) in
  let trap_segments =
    Array.map
      (fun (tr : Component.trap) ->
        let r = Component.cell_code comp tr.Component.tap in
        if r >= 0 && Component.is_segment comp r then r else -1)
      traps
  in
  (* Segment [s]'s pocket: its cells, the traps tapped on them and both
     orientation nodes of the junctions at its ends.  A cell's in-edges
     come from its own segment, its end junctions and its own traps, and a
     trap's only in-edge is from its tap cell, so only a step into an end
     junction can enter the pocket: [pocket_cut s visit] visits those
     in-edges of the end junctions' nodes whose source lies outside. *)
  let segments = Component.segments comp in
  let junction_code c =
    let r = Component.cell_code comp c in
    if r >= 0 && not (Component.is_segment comp r) then r else -1
  in
  let pocket_cut s visit =
    let seg = segments.(s) in
    let lo_dir, hi_dir =
      match seg.Component.orientation with
      | Cell.Horizontal -> (Coord.West, Coord.East)
      | Cell.Vertical -> (Coord.North, Coord.South)
    in
    let lo = Coord.step seg.Component.cells.(0) lo_dir in
    let hi = Coord.step seg.Component.cells.(Array.length seg.Component.cells - 1) hi_dir in
    (* no node sits on an empty cell, so an absent end's -1 matches none *)
    let jlo = junction_code lo and jhi = junction_code hi in
    let inside u =
      let r = Component.cell_code comp positions.(u) in
      r = s || r = jlo || r = jhi || (r <= -2 && trap_segments.(-2 - r) = s)
    in
    let cross tbl c =
      match Coord.Tbl.find_opt tbl c with
      | Some v ->
          for k = in_start.(v) to in_start.(v + 1) - 1 do
            if not (inside edge_src.(in_edges.(k))) then visit in_edges.(k)
          done
      | None -> ()
    in
    cross junc_node_h lo;
    cross junc_node_v lo;
    cross junc_node_h hi;
    cross junc_node_v hi
  in
  (* counting pass, then fill pass: no per-segment list is kept *)
  let nseg = Array.length segments in
  let pocket_start = Array.make (nseg + 1) 0 in
  for s = 0 to nseg - 1 do
    pocket_start.(s + 1) <- pocket_start.(s);
    pocket_cut s (fun _ -> pocket_start.(s + 1) <- pocket_start.(s + 1) + 1)
  done;
  let pocket_edges = Array.make pocket_start.(nseg) 0 in
  for s = 0 to nseg - 1 do
    let fill = ref pocket_start.(s) in
    pocket_cut s (fun i ->
        pocket_edges.(!fill) <- i;
        incr fill)
  done;
  {
    component = comp;
    num_nodes = n;
    row_start;
    edge_dst;
    edge_kinds;
    edge_src;
    in_start;
    in_edges;
    res_start;
    res_edges;
    pocket_start;
    pocket_edges;
    trap_segments;
    trap_nodes;
    positions;
    orientations = Array.of_list (List.rev !orientations);
  }
