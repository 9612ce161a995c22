module Graph = Fabric.Graph

type result = { cost : float; edges : Graph.edge list }

(* Shared Dijkstra/A* core over the CSR adjacency.  Fills [ws] for the
   current generation; with a heuristic the queue priority is dist + h but
   settled distances are exact g-costs.  [dst = -1] sweeps the whole graph,
   otherwise the search stops when [dst] settles. *)
let run_into ?heuristic ?edge_weights ws graph ~weight ~src ~dst =
  let n = Graph.num_nodes graph in
  if src < 0 || src >= n then invalid_arg "Dijkstra: source out of range";
  if dst < -1 || dst >= n then invalid_arg "Dijkstra: destination out of range";
  (* the fast relax loop reads [ew] unchecked, so check its length once *)
  (match edge_weights with
  | Some ew when Array.length ew < Graph.num_edges graph ->
      invalid_arg "Dijkstra: edge_weights shorter than the edge count"
  | Some _ | None -> ());
  let h = match heuristic with Some f -> f | None -> fun _ -> 0.0 in
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
  Ion_util.Fheap.add queue (h src) src;
  let finished = ref false in
  while (not !finished) && not (Ion_util.Fheap.is_empty queue) do
    let u = Ion_util.Fheap.top_data queue in
    Ion_util.Fheap.drop_min queue;
    if settled.(u) <> gen then begin
      settled.(u) <- gen;
      if u = dst then finished := true
      else begin
        let du = dist.(u) in
        let stop = Graph.succ_stop graph u in
        (* Two copies of the relax loop: joining a prefilled-array read
           with a closure-call result at one [let w] would box the float
           on every edge, which is exactly what [edge_weights] avoids.
           The fast copy also skips the heuristic call ([h v] through a
           closure boxes its result per push); no caller combines a
           prefilled array with A*. *)
        match (edge_weights, heuristic) with
        | Some ew, None ->
            for i = Graph.succ_start graph u to stop - 1 do
              let w = Array.unsafe_get ew i in
              if w < 0.0 then invalid_arg "Dijkstra: negative edge weight";
              if w < Float.infinity then begin
                let v = Graph.succ_dst graph i in
                let nd = du +. w in
                if nd < (if reached.(v) = gen then dist.(v) else Float.infinity) then begin
                  dist.(v) <- nd;
                  pred_edge.(v) <- i;
                  pred_node.(v) <- u;
                  reached.(v) <- gen;
                  (* manual push: Fheap.add would box nd at the call
                     boundary (no flambda); see the recipe in fheap.mli *)
                  Ion_util.Fheap.ensure_room queue;
                  queue.Ion_util.Fheap.prio.(queue.Ion_util.Fheap.size) <- nd;
                  queue.Ion_util.Fheap.data.(queue.Ion_util.Fheap.size) <- v;
                  queue.Ion_util.Fheap.size <- queue.Ion_util.Fheap.size + 1;
                  Ion_util.Fheap.sift_up queue (queue.Ion_util.Fheap.size - 1)
                end
              end
            done
        | _ ->
            for i = Graph.succ_start graph u to stop - 1 do
              let w =
                match edge_weights with
                | Some ew -> Array.unsafe_get ew i
                | None -> weight (Graph.succ_kind graph i)
              in
              if w < 0.0 then invalid_arg "Dijkstra: negative edge weight";
              if w < Float.infinity then begin
                let v = Graph.succ_dst graph i in
                let nd = du +. w in
                if nd < (if reached.(v) = gen then dist.(v) else Float.infinity) then begin
                  dist.(v) <- nd;
                  pred_edge.(v) <- i;
                  pred_node.(v) <- u;
                  reached.(v) <- gen;
                  Ion_util.Fheap.add queue (nd +. h v) v
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

let shortest_path ?workspace graph ~weight ~src ~dst =
  let ws = match workspace with Some w -> w | None -> Workspace.create () in
  run_into ws graph ~weight ~src ~dst;
  path_to ws graph ~dst

let distances ?workspace graph ~weight ~src =
  let ws = match workspace with Some w -> w | None -> Workspace.create () in
  run_into ws graph ~weight ~src ~dst:(-1);
  Array.init (Graph.num_nodes graph) (Workspace.dist ws)
