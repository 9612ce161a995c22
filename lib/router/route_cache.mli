(** Cross-candidate memoization of congestion-free routing work.

    Placement search evaluates hundreds of candidate placements on the same
    fabric, and each evaluation recomputes the same uncongested shortest
    paths between the same trap pairs.  This cache remembers
    {e base-weight paths}: single-net shortest paths computed while the
    live weight function coincided with the base weights (nothing in
    flight, no saturation, no history) — under that condition the search
    is a pure function of [(turn_cost, src, dst)] and its result can be
    replayed bit-identically.  Entries are keyed on the fabric graph's
    physical identity.

    There is one path table, and only the engine's searches fill it
    ([Simulator.Engine]).  Every search breaks equal-cost ties by the
    canonical rule of {!Dijkstra.run_into}, so A* and Dijkstra return the
    same path; the engine searches with A* on the {!Lower_bound} tables
    the cache reads, and a stored path is the answer any search would
    give.  PathFinder reads only the lower-bound tables and never stores
    or replays a path.

    The cache keeps no lower-bound table itself: {!lower_bound} reads the
    {!Lower_bound.t} store handed to it ({!use_bounds}; [Mapper] hands
    every cache its estimator's store, so the service's fabric entry,
    every job's cache and every pool domain read one store), an attached
    snapshot's store, or, at a turn cost neither covers, one the cache
    makes on first use.

    A cache is single-domain mutable state.  {!domain_local} hands every
    domain its own (values are pure functions of the key, so results never
    depend on which domain served them); the path count is soft-capped so
    long-lived domain caches cannot grow without bound.

    For cross-domain sharing, a cache can be frozen into a {!snapshot}: an
    immutable-after-build union of its paths that any number of domains
    may consult concurrently as a read-only fallback layer ({!attach}).
    The service scheduler uses this to promote warm per-fabric paths from
    per-domain state to per-fabric shared state. *)

type t

type snapshot
(** Frozen paths, and the table stores behind them, for one fabric graph.  Immutable after {!freeze}
    returns; publish to other domains through a synchronized handoff
    (mutex / domain spawn) and then read freely. *)

val create : unit -> t

val domain_local : unit -> t
(** This domain's cache (created on first use, persists for the domain's
    lifetime).  Never share the returned value with another domain. *)

val for_graph : t -> Fabric.Graph.t -> unit
(** Bind the cache to a fabric graph: a no-op when [graph] is physically the
    cached one, otherwise all entries are dropped.  Call before any lookup
    batch so stale entries from a previous fabric can never leak. *)

val use_bounds : t -> Lower_bound.t -> unit
(** Hand the cache a table store: binds the cache to the store's graph
    (as {!for_graph}), and {!lower_bound} reads the store at its turn
    cost from then on, in place of any store the cache held at that turn
    cost.  Handing the store the cache already reads first is O(1). *)

val lower_bound :
  t -> Fabric.Graph.t -> turn_cost:float -> dst:Fabric.Graph.node -> Lower_bound.table
(** The table toward [dst] from the store the cache reads at [turn_cost]
    ({!Lower_bound.toward}): the handed or attached one, or one the cache
    makes on the first lookup at a turn cost neither covers.  The cache
    drops its stores on a rebind to another graph.  Binds the cache to
    [graph] first. *)

val find : t -> turn_cost:float -> src:int -> dst:int -> Path.t option option
(** [Some result] when a base-weight search was cached for the
    key — [result] itself is [None] for a cached unreachable pair.  Only
    consult this while the caller's live weight function equals the base
    weights; a hit then substitutes for the search verbatim. *)

val store : t -> turn_cost:float -> src:int -> dst:int -> Path.t option -> unit
(** Record a base-weight search result.  Dropped silently once the soft
    entry cap is reached. *)

val clear : t -> unit

val freeze : t -> snapshot
(** Copy the cache's current paths (unioned with any attached snapshot
    for the same graph, local entries winning value-neutral ties) into a
    frozen snapshot, with the stores the cache reads, shared, not
    copied.  Folding [freeze] over a wave of job caches that all
    had the previous snapshot attached accumulates every entry seen so
    far.

    Only the path table is copied — the {!Router.Path.t} values are shared
    structurally, and {!find} hands the stored value back as-is, so every
    consumer of a cached route reads the same flat arrays.  Because the
    flat representation answers [resource]/[step]/[duration] queries
    without allocating, a warm service batch replaying snapshot routes
    allocates nothing per hit.  @raise Invalid_argument if the cache is not bound to a
    graph. *)

val attach : t -> snapshot -> unit
(** Install a snapshot as the cache's read-only fallback layer, binding
    the cache to the snapshot's graph first (dropping stale local entries
    if it was bound to a different one).  Lookups consult local paths
    first, then the snapshot; shared hits count toward {!hits} and
    {!shared_hits}.  The cache also reads the snapshot's stores at turn
    costs it holds no store for.  Replaces any previously attached
    snapshot. *)

val snapshot_paths : snapshot -> int
(** Cached path entries in the snapshot. *)

val hits : t -> int

val misses : t -> int

val shared_hits : t -> int
(** The subset of {!hits} served from the attached snapshot rather than
    the cache's own path table. *)

val bound_builds : t -> int
(** Lower-bound tables swept by this cache's own {!lower_bound} lookups
    (lookups that found the table not yet built in the store). *)
