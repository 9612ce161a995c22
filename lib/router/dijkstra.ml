module Graph = Fabric.Graph
module Fheap = Ion_util.Fheap

type result = { cost : float; edges : Graph.edge list }

(* A queue slot's int packs the hop count above the node id. *)
let node_bits = 24

let node_mask = (1 lsl node_bits) - 1

(* 2^20: a packed key is [f * 2^20 + hops].  While [f] is a multiple of
   0.5 below 2^33 and hops stay below 2^19 (a least-label path is simple,
   so its hops stay below the node count), that float is exact and a
   half-unit step of [f] (2^19) outweighs any hop count: one float
   comparison then orders keys as the (f, hops) pairs do. *)
let hop_scale = 1048576.0

let packed_max_nodes = 1 lsl 19

(* 2^33: below it, [f * 2^20] stays within the 53-bit mantissa *)
let packed_max_cost = 8589934592.0

(* The one Dijkstra/A* relax loop over the CSR adjacency.  Fills [ws] for
   the current generation; with a heuristic table the queue orders nodes
   by dist + h but settled distances are exact g-costs.  [dst = -1] sweeps
   the whole graph, otherwise the search stops when [dst] settles.

   A search toward [dst] breaks ties canonically, so the path returned
   never depends on the heap's pop order (doc/router.md, "Canonical
   tie-break"):
   - a node's label is (cost, hops), compared lexicographically, and the
     queue orders entries by the pair f = cost + h, then hops;
   - among the tight in-edges of a label, [pred_edge] keeps the lowest
     CSR index.
   Every edge adds a hop, so a tight predecessor's key is strictly below
   its successor's and settles first, also through zero-weight turns and
   under a heuristic consistent in float arithmetic.  Hence Dijkstra and
   A* return the same path.

   The queue compares a pair in one of two encodings.  A search starts
   with packed keys, one float comparison per step (Eq. 2 weights, turn
   costs 10 and 0, PathFinder's costs and their tables are all on the
   half-unit grid).  The first [f] off that grid makes the search start
   over with [lex]: the slot's float is [f] and a tie compares the hops
   packed in its int, exact for every weight.  Both orders are the pair
   order, so the answer does not depend on the encoding.

   The loop is self-contained (it pops and pushes the workspace's heap
   inline and reads the CSR arrays directly) because the dev profile's
   [-opaque] keeps every [Fheap]/[Graph] accessor a real call per pop,
   push and edge (doc/router.md).  Both sifts move a hole with [Fheap]'s
   comparisons (and, under [lex], the hop tie-break).  Reads are
   unchecked: [weights] and [h] are length-checked below,
   [Workspace.prepare] sizes the node arrays to [n], CSR indices come
   from the graph, and [ensure_room] keeps the queue slots within its
   arrays. *)
let rec search ~lex ~h ~guided ws graph ~weights ~src ~dst =
  let n = Graph.num_nodes graph in
  (* a sweep's only output is its distances, which ties cannot change, so
     it orders labels by cost alone: keys are [f], hop halves all 0, no
     relabel on fewer hops, no tie-break (and so no predecessor cycle
     through zero-weight edges) *)
  let sweep = dst = -1 in
  Workspace.prepare ws n;
  let gen = ws.Workspace.generation in
  let dist = ws.Workspace.dist
  and hops = ws.Workspace.hops
  and pred_edge = ws.Workspace.pred_edge
  and pred_node = ws.Workspace.pred_node
  and reached = ws.Workspace.reached
  and settled = ws.Workspace.settled
  and q = ws.Workspace.queue in
  let row_start = Graph.row_start graph and edge_dst = Graph.edge_dst graph in
  dist.(src) <- 0.0;
  hops.(src) <- 0;
  pred_edge.(src) <- -1;
  pred_node.(src) <- -1;
  reached.(src) <- gen;
  (* alone in the (cleared, never empty-capacity) queue, the source pops
     first whatever its key *)
  q.Fheap.prio.(0) <- 0.0;
  q.Fheap.data.(0) <- src;
  q.Fheap.size <- 1;
  let count = ref 0 in
  let finished = ref false in
  (* every packed key pushed so far is exact *)
  let exact = ref true in
  while (not !finished) && !exact && q.Fheap.size > 0 do
    let prio = q.Fheap.prio and data = q.Fheap.data in
    let u = Array.unsafe_get data 0 land node_mask in
    (* pop: the last entry fills the root hole and sifts down *)
    let size = q.Fheap.size - 1 in
    q.Fheap.size <- size;
    if size > 0 then begin
      let key = Array.unsafe_get prio size and item = Array.unsafe_get data size in
      let key_hops = item lsr node_bits in
      let hole = ref 0 and sinking = ref true in
      while !sinking do
        let i = !hole in
        let l = (2 * i) + 1 in
        let r = l + 1 in
        let smallest =
          if l < size
             &&
             let p = Array.unsafe_get prio l in
             p < key || (lex && p = key && Array.unsafe_get data l lsr node_bits < key_hops)
          then l
          else i
        in
        let smallest =
          if r < size
             &&
             let p = Array.unsafe_get prio r in
             let sp = if smallest = i then key else Array.unsafe_get prio smallest in
             p < sp
             || lex
                && p = sp
                && Array.unsafe_get data r lsr node_bits
                   < if smallest = i then key_hops else Array.unsafe_get data smallest lsr node_bits
          then r
          else smallest
        in
        if smallest = i then sinking := false
        else begin
          Array.unsafe_set prio i (Array.unsafe_get prio smallest);
          Array.unsafe_set data i (Array.unsafe_get data smallest);
          hole := smallest
        end
      done;
      Array.unsafe_set prio !hole key;
      Array.unsafe_set data !hole item
    end;
    if Array.unsafe_get settled u <> gen then begin
      Array.unsafe_set settled u gen;
      incr count;
      if u = dst then finished := true
      else begin
        let du = Array.unsafe_get dist u and nh = Array.unsafe_get hops u + 1 in
        for i = Array.unsafe_get row_start u to Array.unsafe_get row_start (u + 1) - 1 do
          let w = Array.unsafe_get weights i in
          if not (w >= 0.0) then invalid_arg "Dijkstra: negative or NaN edge weight";
          if w < Float.infinity then begin
            let v = Array.unsafe_get edge_dst i in
            let nd = du +. w in
            let fresh = Array.unsafe_get reached v <> gen in
            (* most edges reach a node already labelled lower: one test *)
            if fresh || nd <= Array.unsafe_get dist v then begin
              if (not fresh) && nd = Array.unsafe_get dist v && (sweep || nh >= Array.unsafe_get hops v)
              then begin
                (* an equal label only takes the lower-index tight in-edge *)
                if (not sweep) && nh = Array.unsafe_get hops v && i < Array.unsafe_get pred_edge v then begin
                  Array.unsafe_set pred_edge v i;
                  Array.unsafe_set pred_node v u
                end
              end
              else begin
                (* a better label moves and requeues [v] *)
                Array.unsafe_set dist v nd;
                Array.unsafe_set hops v nh;
                Array.unsafe_set pred_edge v i;
                Array.unsafe_set pred_node v u;
                Array.unsafe_set reached v gen;
                let f = if guided then nd +. Array.unsafe_get h v else nd in
                let key =
                  if sweep || lex then f
                  else begin
                    (* on the half-unit grid, tested inline: a call would
                       box [f] *)
                    let f2 = f *. 2.0 in
                    if not (f < packed_max_cost && Float.of_int (Float.to_int f2) = f2) then exact := false;
                    (f *. hop_scale) +. float_of_int nh
                  end
                in
                let key_hops = if sweep then 0 else nh in
                let item = (key_hops lsl node_bits) lor v in
                (* push: the new entry enters a hole at the end and sifts up *)
                if q.Fheap.size = Array.length q.Fheap.prio then Fheap.ensure_room q;
                let prio = q.Fheap.prio and data = q.Fheap.data in
                let hole = ref q.Fheap.size and rising = ref true in
                q.Fheap.size <- !hole + 1;
                while !rising && !hole > 0 do
                  let i = !hole in
                  let parent = (i - 1) / 2 in
                  let p = Array.unsafe_get prio parent and d = Array.unsafe_get data parent in
                  if key < p || (lex && key = p && key_hops < d lsr node_bits) then begin
                    Array.unsafe_set prio i p;
                    Array.unsafe_set data i d;
                    hole := parent
                  end
                  else rising := false
                done;
                Array.unsafe_set prio !hole key;
                Array.unsafe_set data !hole item
              end
            end
          end
        done
      end
    end
  done;
  if !exact then ws.Workspace.settled_nodes <- !count
  else (* an [f] left the half-unit grid: start over on exact pairs *)
    search ~lex:true ~h ~guided ws graph ~weights ~src ~dst

let run_into ?heuristic ws graph ~weights ~src ~dst =
  let n = Graph.num_nodes graph in
  if src < 0 || src >= n then invalid_arg "Dijkstra: source out of range";
  if dst < -1 || dst >= n then invalid_arg "Dijkstra: destination out of range";
  (* node ids and hop counts (below [n]) must fit a queue slot's int *)
  if n > node_mask then invalid_arg "Dijkstra: graph too large";
  (* the relax loop reads both tables unchecked, so check their lengths once *)
  if Array.length weights < Graph.num_edges graph then
    invalid_arg "Dijkstra: weights shorter than the edge count";
  let h = Option.value heuristic ~default:[||] and guided = Option.is_some heuristic in
  if guided && Array.length h < n then invalid_arg "Dijkstra: heuristic shorter than the node count";
  search ~lex:(n > packed_max_nodes) ~h ~guided ws graph ~weights ~src ~dst

(* Rebuild the O(path) edge list from the workspace predecessors. *)
let path_to ws graph ~dst =
  if Workspace.dist ws dst = Float.infinity then None
  else begin
    let rec walk acc v =
      let e = ws.Workspace.pred_edge.(v) in
      if e < 0 then acc else walk (Graph.edge_at graph e :: acc) ws.Workspace.pred_node.(v)
    in
    Some { cost = ws.Workspace.dist.(dst); edges = walk [] dst }
  end

let shortest_path ?workspace graph ~weights ~src ~dst =
  let ws = match workspace with Some w -> w | None -> Workspace.create () in
  run_into ws graph ~weights ~src ~dst;
  path_to ws graph ~dst

(* filled by a stamp check, not [Array.init (Workspace.dist ws)], whose
   closure would box every node's float *)
let distances ?workspace graph ~weights ~src =
  let ws = match workspace with Some w -> w | None -> Workspace.create () in
  run_into ws graph ~weights ~src ~dst:(-1);
  let n = Graph.num_nodes graph in
  let out = Array.make n Float.infinity in
  let gen = ws.Workspace.generation in
  for v = 0 to n - 1 do
    if ws.Workspace.reached.(v) = gen then out.(v) <- ws.Workspace.dist.(v)
  done;
  out
