(** Dijkstra shortest paths on the fabric routing graph (paper Section
    IV.B), with an optional A* heuristic.

    Edge weights are a [float array] indexed by CSR edge (the [i] of
    [Fabric.Graph.succ_start .. succ_stop - 1]) and the A* heuristic a
    [float array] indexed by node, both read unboxed, so a search
    allocates nothing per edge or push.  Weights of [infinity] model
    saturated resources; a route through them is never returned.  A NaN
    weight is an error, not a wall.

    Every entry point takes an optional {!Workspace.t}.  Passing one reuses
    its arrays and frontier across queries, so a query allocates O(path)
    instead of O(nodes); omitting it allocates a fresh workspace per call.
    A workspace must not be shared between domains. *)

type result = { cost : float; edges : Fabric.Graph.edge list }
(** [edges] in travel order from the source; [cost] in move units. *)

val shortest_path :
  ?workspace:Workspace.t ->
  Fabric.Graph.t ->
  weights:float array ->
  src:Fabric.Graph.node ->
  dst:Fabric.Graph.node ->
  result option
(** [None] when the destination is unreachable under finite weights.
    A [src = dst] query yields a zero-cost empty path.
    @raise Invalid_argument on a negative or NaN edge weight, or as {!run_into}. *)

val distances :
  ?workspace:Workspace.t ->
  Fabric.Graph.t ->
  weights:float array ->
  src:Fabric.Graph.node ->
  float array
(** Full distance vector from [src] ([infinity] where unreachable), as a
    fresh array: the sweep behind every {!Lower_bound} table, and run by
    nothing else in the library (a CI step keeps it there). *)

(** {2 Shared search core}

    The primitives behind [shortest_path], exposed so the engine's and the
    PathFinder's searches, guided or not, run the exact same loop. *)

val run_into :
  ?heuristic:float array ->
  Workspace.t ->
  Fabric.Graph.t ->
  weights:float array ->
  src:Fabric.Graph.node ->
  dst:Fabric.Graph.node ->
  unit
(** Runs the search into the workspace's current generation.  [dst = -1]
    settles the whole reachable graph; otherwise the search stops once
    [dst] settles.  [heuristic] (in practice the {!Lower_bound.table} of
    [dst]) keys the queue on distance + heuristic; it must be admissible
    and consistent for the settled costs to be exact (A* contract).

    A search toward [dst] returns the {e canonical} path, whatever the
    heap's pop order: labels are (cost, hops), compared
    lexicographically, and each node's predecessor is its tight in-edge
    (one that attains the label) of lowest CSR index.  The queue orders
    entries by the pair (cost + heuristic, hops), lexicographically too,
    so the rule holds for every non-negative weight and Dijkstra's
    labels are exact least labels in float arithmetic.  (A search packs
    each pair into one float while every cost + heuristic it pushes is
    a multiple of 0.5, and starts over comparing the pairs at the first
    one that is not; [settled_nodes] counts the last run.)  With a
    heuristic consistent in float arithmetic every tight predecessor
    settles before its successor, so A* and Dijkstra return the same
    path and dist bits; that holds whenever the sums cost + heuristic
    are exact (Eq. 2 weights, turn costs 10 and 0, PathFinder's
    negotiation costs).  Under other weights, such as a turn cost of
    [t_turn / t_move] = 10/3, A* returns a least-cost path up to the
    rounding of cost + heuristic.  The workspace's [hops] holds the
    labels' hop counts.  A sweep ([dst = -1]) orders labels by cost
    alone: its distances are the same and its predecessors are not
    canonical.
    @raise Invalid_argument when [weights] is shorter than
    [Fabric.Graph.num_edges graph] or [heuristic] shorter than
    [Fabric.Graph.num_nodes graph] (both checked once per call), on an
    out-of-range [src]/[dst], on a graph of 2{^24} nodes or more, or on
    a negative or NaN weight the search reads.  Records the number of nodes it settled in the workspace's
    [settled_nodes]. *)

val path_to : Workspace.t -> Fabric.Graph.t -> dst:Fabric.Graph.node -> result option
(** The path recorded by the last {!run_into} on this workspace. *)
