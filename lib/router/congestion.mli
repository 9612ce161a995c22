(** Live congestion state and the paper's Eq. 2 edge-weight function.

    Tracks the number of qubits using (or committed to use) each channel
    segment and junction.  Weights are expressed in move units:

    {v
      chan step   : (n+1)          if n < channel capacity, else infinity
      junc step   : 1              if n < junction capacity, else infinity
      turn        : t_turn/t_move  (0 in the turn-blind QUALE model)
      tap hop     : 1
    v}

    Summed over a whole segment of length L this reproduces Eq. 2's
    [(n+1) * length].  Acquire on route commit, release when the qubit exits
    — the paper's "already using or will use". *)

type t

val create : Fabric.Component.t -> channel_capacity:int -> junction_capacity:int -> t
(** @raise Invalid_argument on non-positive capacities. *)

val channel_capacity : t -> int
val junction_capacity : t -> int

val users : t -> Fabric.Component.resource -> int
val capacity : t -> Fabric.Component.resource -> int

val is_free : t -> Fabric.Component.resource -> bool
(** Residual capacity remains. *)

val acquire : t -> Fabric.Component.resource -> unit
(** @raise Invalid_argument when the resource is already at capacity:
    committing past capacity is a router bug. *)

val release : t -> Fabric.Component.resource -> unit
(** @raise Invalid_argument when the resource has no users. *)

val weight : t -> turn_cost:float -> Fabric.Graph.edge_kind -> float
(** The Eq. 2 weight of one edge kind under current congestion; [infinity]
    when the edge's resource is saturated.  Taking the kind (not the edge
    record) lets searches scan the CSR adjacency without materializing edge
    values. *)

val track_weights : t -> turn_cost:float -> Fabric.Graph.t -> float array -> unit
(** [track_weights t ~turn_cost graph out] writes {!weight} for every CSR
    edge index of [graph] into [out] and from then on keeps [out] equal to
    {!weight} at all times: every {!acquire}/{!release} rewrites just the
    edges of that resource (the graph's resource row), so a search can read
    [out] as [Dijkstra.run_into]'s [weights] with no per-search sweep.
    Only channel and junction edges ever change; turn and tap edges keep
    the values written here.  The array holds floats unboxed, and the
    refresh writes them without calling {!weight}, so tracking allocates
    nothing per acquire or release.  A later call replaces the tracked
    array; [graph] must be built on the component [t] was created for.
    @raise Invalid_argument when [out] is shorter than
    [Fabric.Graph.num_edges graph]. *)

val total_in_flight : t -> int
(** Sum of users over all resources, for diagnostics and invariant checks.
    O(1): maintained by {!acquire}/{!release}. *)

val base_weights_active : t -> bool
(** True iff {!weight} currently equals {!Lower_bound.base_weight} on every
    edge: no segment has any user (channel cost is [(n+1)], so one user
    already deviates) and no junction is saturated (junction cost stays 1
    strictly below capacity).  While true, a shortest-path query is a pure
    function of [(turn_cost, src, dst)] and may be served from — or stored
    into — a {!Route_cache}.  O(1). *)
