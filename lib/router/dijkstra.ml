module Graph = Fabric.Graph

type result = { cost : float; edges : Graph.edge list }

(* The one Dijkstra/A* relax loop over the CSR adjacency.  Fills [ws] for
   the current generation; with a heuristic table the queue key is
   dist + h but settled distances are exact g-costs.  [dst = -1] sweeps
   the whole graph, otherwise the search stops when [dst] settles. *)
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
  and queue = ws.Workspace.queue in
  dist.(src) <- 0.0;
  pred_edge.(src) <- -1;
  pred_node.(src) <- -1;
  reached.(src) <- gen;
  (* alone in the queue, the source pops first whatever its key *)
  Ion_util.Fheap.add queue 0.0 src;
  let finished = ref false in
  while (not !finished) && not (Ion_util.Fheap.is_empty queue) do
    let u = Ion_util.Fheap.top_data queue in
    Ion_util.Fheap.drop_min queue;
    if settled.(u) <> gen then begin
      settled.(u) <- gen;
      if u = dst then finished := true
      else begin
        let du = dist.(u) in
        for i = Graph.succ_start graph u to Graph.succ_stop graph u - 1 do
          let w = Array.unsafe_get weights i in
          if w < 0.0 then invalid_arg "Dijkstra: negative edge weight";
          if w < Float.infinity then begin
            let v = Graph.succ_dst graph i in
            let nd = du +. w in
            if nd < (if reached.(v) = gen then dist.(v) else Float.infinity) then begin
              dist.(v) <- nd;
              pred_edge.(v) <- i;
              pred_node.(v) <- u;
              reached.(v) <- gen;
              let key = if guided then nd +. Array.unsafe_get h v else nd in
              (* manual push: Fheap.add would box the key at the call
                 boundary (no flambda); see the recipe in fheap.mli *)
              Ion_util.Fheap.ensure_room queue;
              queue.Ion_util.Fheap.prio.(queue.Ion_util.Fheap.size) <- key;
              queue.Ion_util.Fheap.data.(queue.Ion_util.Fheap.size) <- v;
              queue.Ion_util.Fheap.size <- queue.Ion_util.Fheap.size + 1;
              Ion_util.Fheap.sift_up queue (queue.Ion_util.Fheap.size - 1)
            end
          end
        done
      end
    end
  done

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
