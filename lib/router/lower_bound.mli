(** Per-destination turn-aware base-cost distance tables, one store per
    fabric graph and turn cost.

    The {e base} weight of an edge is its congestion-free Eq. 2 cost: 1 move
    unit for channel, junction and tap steps, [turn_cost] for turns.  Every
    live weight function in this repo — the engine's {!Congestion.weight} and
    the Pathfinder's present/history-penalized negotiation cost — only ever
    {e adds} to the base (channel cost [(n+1) >= 1], history and present
    penalties multiply by factors [>= 1]), so the base-cost distance to a
    destination is an admissible {e and} consistent A* heuristic for any
    search toward that destination under any of those weight functions:
    [h(u) <= base(u,v) + h(v) <= w(u,v) + h(v)].

    A table is one Dijkstra sweep from the destination; the fabric graph is
    weight-symmetric under base costs (movement, turn and tap edges are all
    inserted in both directions at equal base cost), so the forward sweep
    yields exact to-destination distances.

    A store is the only keeper of these tables: the engine's and
    {!Pathfinder}'s A* read them through {!Route_cache.lower_bound}, and
    {!Estimator.Distance} reads the same store at the trap nodes, so a
    table is swept once per store, whichever layer reads it first.  A
    store is shared across domains: its only mutable state is one
    write-once [Atomic] cell per node, and domains racing on a cell sweep
    equal tables and all adopt the first one published. *)

type t
(** A store: the tables toward every node of one graph at one turn cost. *)

type table = float array
(** Exact base-cost distance to the destination per node ([infinity] when
    disconnected).  Tables are shared across domains: never write one. *)

val base_weight : turn_cost:float -> Fabric.Graph.edge_kind -> float
(** The congestion-free Eq. 2 edge cost: [turn_cost] for turns, 1 move unit
    for everything else.  The shared definition all lower-bound machinery
    keys on. *)

val base_weights : Fabric.Graph.t -> turn_cost:float -> float array
(** {!base_weight} of every CSR edge, as {!Dijkstra}'s [weights].
    @raise Invalid_argument on a negative/NaN turn cost. *)

val create : Fabric.Graph.t -> turn_cost:float -> t
(** Validates [turn_cost], tabulates {!base_weights} once and allocates one
    empty cell per node: O(edges + nodes), no sweep.
    @raise Invalid_argument on a negative/NaN turn cost. *)

val graph : t -> Fabric.Graph.t

val turn_cost : t -> float

val toward : t -> Fabric.Graph.node -> table
(** [toward t dst] — the table toward [dst].  Its first reader sweeps it
    (one Dijkstra sweep from [dst], on the calling domain's
    {!Workspace.domain_local}) and publishes it; later reads return the
    same array.  @raise Invalid_argument on an out-of-range destination. *)

val is_built : t -> Fabric.Graph.node -> bool
(** Whether a {!toward} on the node would return without sweeping. *)

val built : t -> int
(** Tables swept so far: the sweeps this store has paid for. *)
