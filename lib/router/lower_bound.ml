module Graph = Fabric.Graph

type t = float array

let base_weight ~turn_cost (kind : Graph.edge_kind) =
  match kind with Graph.Turn _ -> turn_cost | Graph.Chan _ | Graph.Junc _ | Graph.Tap _ -> 1.0

let base_weights graph ~turn_cost =
  if turn_cost < 0.0 || Float.is_nan turn_cost then
    invalid_arg "Lower_bound: turn cost must be non-negative";
  Array.init (Graph.num_edges graph) (fun i -> base_weight ~turn_cost (Graph.succ_kind graph i))

(* The fabric graph is weight-symmetric under base costs: movement edges are
   inserted in both directions (entry kind of the destination cell, but both
   kinds cost 1), turn edges exist both ways at [turn_cost], and tap links are
   paired.  A single forward sweep from [dst] therefore yields the exact
   distance TO [dst] from every node. *)
let build ?workspace graph ~turn_cost ~dst =
  Dijkstra.distances ?workspace graph ~weights:(base_weights graph ~turn_cost) ~src:dst
