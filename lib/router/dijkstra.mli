(** Dijkstra shortest paths on the fabric routing graph under a dynamic
    edge-weight function (paper Section IV.B).

    Weights are functions of the {e edge kind} (the resource an edge
    consumes), which is all Eq. 2 congestion costing needs — and lets the
    search scan the CSR adjacency without materializing edge records.
    Weights of [infinity] model saturated resources; a route through them is
    never returned.

    Every entry point takes an optional {!Workspace.t}.  Passing one reuses
    its arrays and frontier across queries, so a query allocates O(path)
    instead of O(nodes); omitting it allocates a fresh workspace per call.
    A workspace must not be shared between domains. *)

type result = { cost : float; edges : Fabric.Graph.edge list }
(** [edges] in travel order from the source; [cost] in move units. *)

val shortest_path :
  ?workspace:Workspace.t ->
  Fabric.Graph.t ->
  weight:(Fabric.Graph.edge_kind -> float) ->
  src:Fabric.Graph.node ->
  dst:Fabric.Graph.node ->
  result option
(** [None] when the destination is unreachable under finite weights.
    A [src = dst] query yields a zero-cost empty path.
    @raise Invalid_argument on a negative edge weight. *)

val distances :
  ?workspace:Workspace.t ->
  Fabric.Graph.t ->
  weight:(Fabric.Graph.edge_kind -> float) ->
  src:Fabric.Graph.node ->
  float array
(** Full distance vector from [src] ([infinity] where unreachable), used by
    diagnostics and trap-selection heuristics. *)

(** {2 Shared search core}

    The primitives behind [shortest_path], exposed so guided searches
    (the PathFinder's A* over a {!Lower_bound.t} heuristic) and the
    engine's prefilled-weight searches run the exact same loop. *)

val run_into :
  ?heuristic:(Fabric.Graph.node -> float) ->
  ?edge_weights:float array ->
  Workspace.t ->
  Fabric.Graph.t ->
  weight:(Fabric.Graph.edge_kind -> float) ->
  src:Fabric.Graph.node ->
  dst:Fabric.Graph.node ->
  unit
(** Runs the search into the workspace's current generation.  [dst = -1]
    settles the whole reachable graph; otherwise the search stops once
    [dst] settles.  [heuristic] must be admissible and consistent for the
    settled costs to be exact (A* contract).

    [edge_weights], when given, must hold the weight of every CSR edge
    index — in the engine, the live array {!Congestion.track_weights}
    keeps equal to {!Congestion.weight} for a whole run (see
    {!Workspace.edge_weights_for}); the search then reads weights unboxed
    instead of calling [weight] per edge, which boxes every returned float.
    Values must equal what [weight] would return — the relax loop is
    otherwise identical, including the negative-weight check, so the two
    modes produce bit-identical predecessors and costs.  Without a
    heuristic this path allocates nothing per edge or push.
    @raise Invalid_argument when [edge_weights] is shorter than
    [Fabric.Graph.num_edges graph] (checked once per call), or on an
    out-of-range [src]/[dst]. *)

val path_to : Workspace.t -> Fabric.Graph.t -> dst:Fabric.Graph.node -> result option
(** The path recorded by the last {!run_into} on this workspace. *)
