module Graph = Fabric.Graph

type table = float array

(* One write-once cell per graph node; an empty array marks a table not
   swept yet (a swept table has one entry per node, so it is never
   empty). *)
type t = { graph : Graph.t; turn_cost : float; weights : float array; tables : table Atomic.t array }

let base_weight ~turn_cost (kind : Graph.edge_kind) =
  match kind with Graph.Turn _ -> turn_cost | Graph.Chan _ | Graph.Junc _ | Graph.Tap _ -> 1.0

let base_weights graph ~turn_cost =
  if turn_cost < 0.0 || Float.is_nan turn_cost then
    invalid_arg "Lower_bound: turn cost must be non-negative";
  Array.init (Graph.num_edges graph) (fun i -> base_weight ~turn_cost (Graph.succ_kind graph i))

let create graph ~turn_cost =
  {
    graph;
    turn_cost;
    weights = base_weights graph ~turn_cost;
    tables = Array.init (Graph.num_nodes graph) (fun _ -> Atomic.make [||]);
  }

let graph t = t.graph
let turn_cost t = t.turn_cost

(* The fabric graph is weight-symmetric under base costs: movement edges are
   inserted in both directions (entry kind of the destination cell, but both
   kinds cost 1), turn edges exist both ways at [turn_cost], and tap links are
   paired.  A single forward sweep from [dst] therefore yields the exact
   distance TO [dst] from every node.  Racing domains sweep equal tables;
   the first to publish wins and the others adopt its table, so every
   reader sees one array per destination. *)
let sweep t dst =
  let table =
    Dijkstra.distances ~workspace:(Workspace.domain_local ()) t.graph ~weights:t.weights ~src:dst
  in
  if Atomic.compare_and_set t.tables.(dst) [||] table then table else Atomic.get t.tables.(dst)

let toward t dst =
  let table = Atomic.get t.tables.(dst) in
  if Array.length table > 0 then table else sweep t dst

let is_built t dst = Array.length (Atomic.get t.tables.(dst)) > 0

let built t =
  Array.fold_left (fun k cell -> if Array.length (Atomic.get cell) > 0 then k + 1 else k) 0 t.tables
