(** Per-destination turn-aware base-cost distance tables.

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
    yields exact to-destination distances.  {!Route_cache} memoizes tables
    across searches (sweeping one {!base_weights} array per graph and turn
    cost), and the engine's and {!Pathfinder}'s A* read them;
    {!Estimator.Distance} builds its trap-to-trap tables from the same
    sweeps over one {!base_weights} array. *)

type t = float array
(** Exact base-cost distance to the destination per node ([infinity] when
    disconnected).  Tables are shared across domains: never write one. *)

val base_weight : turn_cost:float -> Fabric.Graph.edge_kind -> float
(** The congestion-free Eq. 2 edge cost: [turn_cost] for turns, 1 move unit
    for everything else.  The shared definition all lower-bound machinery
    (and {!Estimator.Distance}) keys on. *)

val base_weights : Fabric.Graph.t -> turn_cost:float -> float array
(** {!base_weight} of every CSR edge, as {!Dijkstra}'s [weights].
    @raise Invalid_argument on a negative/NaN turn cost. *)

val build : ?workspace:Workspace.t -> Fabric.Graph.t -> turn_cost:float -> dst:Fabric.Graph.node -> t
(** One full Dijkstra sweep from [dst] under {!base_weights}.
    @raise Invalid_argument on a negative/NaN turn cost or an out-of-range
    destination. *)
