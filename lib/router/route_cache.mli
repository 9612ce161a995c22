(** Cross-candidate memoization of congestion-free routing work.

    Placement search evaluates hundreds of candidate placements on the same
    fabric, and each evaluation recomputes the same uncongested shortest
    paths between the same trap pairs.  This cache remembers two kinds of
    pure results, both keyed on the fabric graph's physical identity:

    - {e lower-bound tables} ({!Lower_bound.t}): per-destination base-cost
      distance sweeps, reused as A* heuristics by every search toward that
      destination;
    - {e base-weight paths}: single-net shortest paths computed while the
      live weight function coincided with the base weights (nothing in
      flight, no saturation, no history) — under that condition the search
      is a pure function of [(turn_cost, src, dst)] and its result can be
      replayed bit-identically.

    Paths come in two flavors because two different searches cache here and
    equal-cost ties break differently: {!Plain} entries are what the
    engine's un-heuristic Dijkstra returns, {!Guided} entries what the
    Pathfinder's lower-bound-guided A* returns.  Mixing them would silently
    swap equal-cost paths and break bit-identity with the uncached runs.

    A cache is single-domain mutable state.  {!domain_local} hands every
    domain its own (values are pure functions of the key, so results never
    depend on which domain served them); entry counts are soft-capped so
    long-lived domain caches cannot grow without bound.

    For cross-domain sharing, a cache can be frozen into a {!snapshot}: an
    immutable-after-build union of its tables that any number of domains
    may consult concurrently as a read-only fallback layer ({!attach}).
    The service scheduler uses this to promote warm per-fabric tables from
    per-domain state to per-fabric shared state. *)

type t

type flavor = Plain | Guided

type snapshot
(** Frozen tables for one fabric graph.  Immutable after {!freeze}
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

val workspace : t -> Workspace.t
(** The cache's scratch workspace, shared by its table builds; borrowers on
    the same domain may use it between cache calls. *)

val lower_bound :
  t -> Fabric.Graph.t -> turn_cost:float -> dst:Fabric.Graph.node -> Lower_bound.t
(** The memoized per-destination table, built on first request (one Dijkstra
    sweep) and shared by every later search toward [dst] at that turn cost. *)

val find : t -> flavor -> turn_cost:float -> src:int -> dst:int -> Path.t option option
(** [Some result] when a base-weight search of this flavor was cached for the
    key — [result] itself is [None] for a cached unreachable pair.  Only
    consult this while the caller's live weight function equals the base
    weights; a hit then substitutes for the search verbatim. *)

val store : t -> flavor -> turn_cost:float -> src:int -> dst:int -> Path.t option -> unit
(** Record a base-weight search result.  Dropped silently once the soft
    entry cap is reached. *)

val clear : t -> unit

val freeze : t -> snapshot
(** Copy the cache's current tables (unioned with any attached snapshot
    for the same graph, local entries winning value-neutral ties) into a
    frozen snapshot.  Folding [freeze] over a wave of job caches that all
    had the previous snapshot attached accumulates every entry seen so
    far.

    Only the tables are copied — the {!Router.Path.t} values are shared
    structurally, and {!find} hands the stored value back as-is, so every
    consumer of a cached route reads the same flat arrays.  Because the
    flat representation answers [resource]/[step]/[duration] queries
    without allocating (the former edge-list paths rebuilt tuple lists per
    use), a warm service batch replaying snapshot routes allocates nothing
    per hit.  @raise Invalid_argument if the cache is not bound to a
    graph. *)

val attach : t -> snapshot -> unit
(** Install a snapshot as the cache's read-only fallback layer, binding
    the cache to the snapshot's graph first (dropping stale local entries
    if it was bound to a different one).  Lookups consult local tables
    first, then the snapshot; shared hits count toward {!hits} and
    {!shared_hits}.  Replaces any previously attached snapshot. *)

val snapshot_paths : snapshot -> int
(** Cached path entries (both flavors) in the snapshot. *)

val snapshot_bounds : snapshot -> int
(** Lower-bound tables in the snapshot. *)

val hits : t -> int

val misses : t -> int

val shared_hits : t -> int
(** The subset of {!hits} served from the attached snapshot rather than
    the cache's own tables. *)

val bound_builds : t -> int
(** Lower-bound tables actually built (cache misses on {!lower_bound}). *)
