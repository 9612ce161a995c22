module Graph = Fabric.Graph

(* A routed path is three flat int-array views of the same edge sequence:

     steps : one packed int per edge —
               bits 0..23   destination node
               bits 24..25  kind tag (0 Chan, 1 Junc, 2 Turn, 3 Tap)
               bits 26..    kind id (resource id; trap id for a tap)
     res   : the distinct resource ids crossed, first-crossing order
             (what acquire/release and the pathfinder's occupancy walk)

   plus precomputed move/turn counts.  Everything is immutable after
   construction, so cached paths (Route_cache snapshots) hand the same
   arrays to every domain without copies, and the per-use consumers
   (acquire/release, exit scheduling, lowering) iterate ints instead of
   materializing edge or tuple lists. *)

type t = {
  src : Graph.node;
  dst : Graph.node;
  cost : float;
  steps : int array;
  res : int array;
  nmoves : int;
  nturns : int;
}

let node_bits = 24
let node_mask = (1 lsl node_bits) - 1
let tag_shift = node_bits
let id_shift = node_bits + 2

let tag_chan = 0
let tag_junc = 1
let tag_turn = 2
let tag_tap = 3

let pack_step ~dst (kind : Graph.edge_kind) =
  if dst land node_mask <> dst then invalid_arg "Path: node id exceeds the packed range";
  match kind with
  | Graph.Chan s -> (s lsl id_shift) lor (tag_chan lsl tag_shift) lor dst
  | Graph.Junc j -> (j lsl id_shift) lor (tag_junc lsl tag_shift) lor dst
  | Graph.Turn j -> (j lsl id_shift) lor (tag_turn lsl tag_shift) lor dst
  | Graph.Tap tp -> (tp lsl id_shift) lor (tag_tap lsl tag_shift) lor dst

let step_count t = Array.length t.steps
let step_dst t i = t.steps.(i) land node_mask
let step_tag t i = (t.steps.(i) lsr tag_shift) land 3
let step_id t i = t.steps.(i) lsr id_shift
let step_is_turn t i = step_tag t i = tag_turn

let step_kind t i : Graph.edge_kind =
  let id = step_id t i in
  match step_tag t i with
  | 0 -> Graph.Chan id
  | 1 -> Graph.Junc id
  | 2 -> Graph.Turn id
  | _ -> Graph.Tap id

(* Resource id of a step, -1 for turn/tap edges *)
let step_resource t i = if step_tag t i <= tag_junc then step_id t i else -1

(* First-crossing-order distinct resources.  Paths are short (O(fabric
   diameter)) and their footprints shorter, so an O(n*k) scan beats a
   hashtable and allocates only the result. *)
let footprint steps =
  let n = Array.length steps in
  if n = 0 then [||]
  else begin
    let tmp = Array.make n 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let tag = (steps.(i) lsr tag_shift) land 3 in
      if tag <= tag_junc then begin
        let r = steps.(i) lsr id_shift in
        let seen = ref false in
        for j = 0 to !k - 1 do
          if tmp.(j) = r then seen := true
        done;
        if not !seen then begin
          tmp.(!k) <- r;
          incr k
        end
      end
    done;
    if !k = n then tmp else Array.sub tmp 0 !k
  end

let make ~src ~dst ~cost steps =
  let nturns = ref 0 in
  for i = 0 to Array.length steps - 1 do
    if (steps.(i) lsr tag_shift) land 3 = tag_turn then incr nturns
  done;
  {
    src;
    dst;
    cost;
    steps;
    res = footprint steps;
    nmoves = Array.length steps - !nturns;
    nturns = !nturns;
  }

let of_edges ~src ~dst ~cost edges =
  let steps = Array.of_list (List.map (fun (e : Graph.edge) -> pack_step ~dst:e.Graph.dst e.Graph.kind) edges) in
  make ~src ~dst ~cost steps

let of_result ~src ~dst (r : Dijkstra.result) = of_edges ~src ~dst ~cost:r.Dijkstra.cost r.Dijkstra.edges

(* Build directly from the predecessor chain a search left in [ws] — the
   flat-path equivalent of [Dijkstra.path_to]: same chain, same order, same
   cost, but packed in place instead of materializing an edge list. *)
let of_workspace ws graph ~src ~dst =
  if Workspace.dist ws dst = Float.infinity then None
  else begin
    let pred_edge = ws.Workspace.pred_edge and pred_node = ws.Workspace.pred_node in
    let n = ref 0 in
    let v = ref dst in
    while pred_edge.(!v) >= 0 do
      incr n;
      v := pred_node.(!v)
    done;
    let steps = Array.make !n 0 in
    let v = ref dst in
    let i = ref (!n - 1) in
    while pred_edge.(!v) >= 0 do
      let e = pred_edge.(!v) in
      steps.(!i) <- pack_step ~dst:(Graph.succ_dst graph e) (Graph.succ_kind graph e);
      decr i;
      v := pred_node.(!v)
    done;
    Some (make ~src ~dst ~cost:(ws.Workspace.dist.(dst)) steps)
  end

let empty node = { src = node; dst = node; cost = 0.0; steps = [||]; res = [||]; nmoves = 0; nturns = 0 }

let src t = t.src
let dst t = t.dst
let cost t = t.cost

let is_empty t = Array.length t.steps = 0

let equal (a : t) (b : t) = a = b

let moves t = t.nmoves
let turns t = t.nturns

(* Sequential edge-order accumulation, NOT nmoves*t_move + nturns*t_turn:
   downstream timestamps must be bit-identical to the pre-flattening
   edge-list fold, and float addition is not reassociable. *)
let duration (tm : Timing.t) t =
  let d = ref 0.0 in
  for i = 0 to step_count t - 1 do
    d := !d +. (if step_is_turn t i then tm.Timing.t_turn else tm.Timing.t_move)
  done;
  !d

let num_resources t = Array.length t.res
let resource t i = t.res.(i)

let iter_resources f t =
  for i = 0 to Array.length t.res - 1 do
    f t.res.(i)
  done

let resource_index t r =
  let n = Array.length t.res in
  let rec go i = if i >= n then -1 else if t.res.(i) = r then i else go (i + 1) in
  go 0

(* A qubit occupies a resource from entry until it has fully moved into the
   next one: the exit time is the completion of the first edge that leaves
   the resource (turn edges keep the qubit inside its junction).  Releasing
   at arrival instead would free a junction while the ion still sits in it
   turning — a capacity violation the certifier catches.

   [out.(i)] receives the exit offset of [resource t i]; a revisited
   resource keeps its LAST exit (matching the pre-flattening table-replace
   semantics).  The clock accumulates edge by edge in travel order so the
   offsets are bit-identical to the old list fold. *)
let resource_exits_into (tm : Timing.t) t out =
  if Array.length out < Array.length t.res then
    invalid_arg "Path.resource_exits_into: output buffer too small";
  let clock = ref 0.0 in
  let current = ref (-1) in
  (* index into t.res, -1 = none *)
  for i = 0 to step_count t - 1 do
    let turn = step_is_turn t i in
    clock := !clock +. (if turn then tm.Timing.t_turn else tm.Timing.t_move);
    if not turn then begin
      let r = step_resource t i in
      let cur = if !current < 0 then -1 else t.res.(!current) in
      if r <> cur then begin
        if !current >= 0 then out.(!current) <- !clock;
        current := (if r < 0 then -1 else resource_index t r)
      end
    end
  done;
  if !current >= 0 then out.(!current) <- !clock

let cells graph t =
  let src_pos = Graph.node_pos graph t.src in
  src_pos :: List.init (step_count t) (fun i -> Graph.node_pos graph (step_dst t i))

let pp graph ppf t =
  Format.fprintf ppf "@[<h>path %a -> %a: %d moves, %d turns, cost %g@]" (Graph.pp_node graph)
    t.src (Graph.pp_node graph) t.dst (moves t) (turns t) t.cost
