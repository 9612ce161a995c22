module Graph = Fabric.Graph
module Fheap = Ion_util.Fheap

type result = { cost : float; edges : Graph.edge list }

(* The one Dijkstra/A* relax loop over the CSR adjacency.  Fills [ws] for
   the current generation; with a heuristic table the queue key is
   dist + h but settled distances are exact g-costs.  [dst = -1] sweeps
   the whole graph, otherwise the search stops when [dst] settles.

   The loop is self-contained (it pops and pushes the workspace's heap
   inline and reads the CSR arrays directly) because the dev profile's
   [-opaque] keeps every [Fheap]/[Graph] accessor a real call per pop,
   push and edge (doc/router.md).  Both sifts move a hole with exactly
   [Fheap]'s comparisons, so the pop order, ties included, is [Fheap]'s.
   Reads are unchecked: [weights] and [h] are length-checked below,
   [Workspace.prepare] sizes the node arrays to [n], CSR indices come from
   the graph, and [ensure_room] keeps the queue slots within its arrays. *)
let run_into ?heuristic ws graph ~weights ~src ~dst =
  let n = Graph.num_nodes graph in
  if src < 0 || src >= n then invalid_arg "Dijkstra: source out of range";
  if dst < -1 || dst >= n then invalid_arg "Dijkstra: destination out of range";
  (* the relax loop reads both tables unchecked, so check their lengths once *)
  if Array.length weights < Graph.num_edges graph then
    invalid_arg "Dijkstra: weights shorter than the edge count";
  let h = Option.value heuristic ~default:[||] and guided = Option.is_some heuristic in
  if guided && Array.length h < n then invalid_arg "Dijkstra: heuristic shorter than the node count";
  Workspace.prepare ws n;
  let gen = ws.Workspace.generation in
  let dist = ws.Workspace.dist
  and pred_edge = ws.Workspace.pred_edge
  and pred_node = ws.Workspace.pred_node
  and reached = ws.Workspace.reached
  and settled = ws.Workspace.settled
  and q = ws.Workspace.queue in
  let row_start = Graph.row_start graph and edge_dst = Graph.edge_dst graph in
  dist.(src) <- 0.0;
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
  while (not !finished) && q.Fheap.size > 0 do
    let prio = q.Fheap.prio and data = q.Fheap.data in
    let u = Array.unsafe_get data 0 in
    (* pop: the last entry fills the root hole and sifts down *)
    let size = q.Fheap.size - 1 in
    q.Fheap.size <- size;
    if size > 0 then begin
      let key = Array.unsafe_get prio size and item = Array.unsafe_get data size in
      let hole = ref 0 and sinking = ref true in
      while !sinking do
        let i = !hole in
        let l = (2 * i) + 1 in
        let r = l + 1 in
        let smallest = if l < size && Array.unsafe_get prio l < key then l else i in
        let smallest =
          if r < size
             && Array.unsafe_get prio r < (if smallest = i then key else Array.unsafe_get prio smallest)
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
        let du = Array.unsafe_get dist u in
        for i = Array.unsafe_get row_start u to Array.unsafe_get row_start (u + 1) - 1 do
          let w = Array.unsafe_get weights i in
          if not (w >= 0.0) then invalid_arg "Dijkstra: negative or NaN edge weight";
          if w < Float.infinity then begin
            let v = Array.unsafe_get edge_dst i in
            let nd = du +. w in
            if nd < (if Array.unsafe_get reached v = gen then Array.unsafe_get dist v else Float.infinity)
            then begin
              Array.unsafe_set dist v nd;
              Array.unsafe_set pred_edge v i;
              Array.unsafe_set pred_node v u;
              Array.unsafe_set reached v gen;
              let key = if guided then nd +. Array.unsafe_get h v else nd in
              (* push: the new entry enters a hole at the end and sifts up *)
              if q.Fheap.size = Array.length q.Fheap.prio then Fheap.ensure_room q;
              let prio = q.Fheap.prio and data = q.Fheap.data in
              let hole = ref q.Fheap.size and rising = ref true in
              q.Fheap.size <- !hole + 1;
              while !rising && !hole > 0 do
                let i = !hole in
                let parent = (i - 1) / 2 in
                if key < Array.unsafe_get prio parent then begin
                  Array.unsafe_set prio i (Array.unsafe_get prio parent);
                  Array.unsafe_set data i (Array.unsafe_get data parent);
                  hole := parent
                end
                else rising := false
              done;
              Array.unsafe_set prio !hole key;
              Array.unsafe_set data !hole v
            end
          end
        done
      end
    end
  done;
  ws.Workspace.settled_nodes <- !count

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
