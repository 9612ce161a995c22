(** Turn-aware routing graph over the fabric (paper Section IV.B, Figure 5c).

    Every junction is split into a {e horizontal} and a {e vertical} node
    joined by a turn edge whose cost is the technology's turn delay, so
    Dijkstra naturally prefers the path with fewer turns among equal
    Manhattan-distance alternatives.  Channel cells contribute one node each
    (their orientation is fixed); traps are leaf nodes linked to their tap
    cell.

    Edges carry the resource they consume so the router can weight them by
    live congestion (Eq. 2) and the simulator can account occupancy.  The
    payload of [Chan], [Junc] and [Turn] is a {!Component.resource} id:
    - [Chan r] — a one-cell step inside channel segment [r];
    - [Junc r] — a one-cell step into the junction with resource id [r];
    - [Turn r] — a 90-degree rotation inside that junction;
    - [Tap t] — the hop between trap [t] and its tap cell.

    Turns outside junctions are impossible: perpendicular channels meeting
    without a junction are not connected. *)

type node = int

type edge_kind = Chan of int | Junc of int | Turn of int | Tap of int

type edge = { dst : node; kind : edge_kind }

type t

val build : Component.t -> t

val component : t -> Component.t
val num_nodes : t -> int

val adj : t -> node -> edge list
(** The list view of a node's out-edges, rebuilt per call — fine for
    diagnostics and tests; hot router loops should use the CSR accessors
    below, which allocate nothing. *)

(** {2 CSR accessors}

    Adjacency is stored in compressed-sparse-row form: the out-edges of node
    [n] are the flat indices [succ_start t n .. succ_stop t n - 1], each
    giving a destination node and an edge kind. *)

val succ_start : t -> node -> int
val succ_stop : t -> node -> int
val succ_dst : t -> int -> node
val succ_kind : t -> int -> edge_kind

val row_start : t -> int array
(** The CSR row offsets themselves (length [num_nodes t + 1]):
    [(row_start t).(n)] is [succ_start t n].  Shared, not copied — read
    only.  For the router's relax loop, which reads the arrays directly
    because the dev profile compiles with [-opaque] and so keeps every
    accessor call a real call. *)

val edge_dst : t -> int array
(** The CSR destination array (length [num_edges t]):
    [(edge_dst t).(i)] is [succ_dst t i].  Shared, not copied — read only. *)

val edge_at : t -> int -> edge
(** The edge record at a CSR index — allocates; used to materialize the
    O(path) result of a search. *)

val edge_src : t -> int -> node
(** Source node of the edge at a CSR index. *)

(** {2 Reverse CSR}

    The in-edges of node [n] are [pred_edge t k] for
    [k = pred_start t n .. pred_stop t n - 1], each a forward CSR edge index
    (so {!edge_src} gives its source), in ascending edge-index order. *)

val pred_start : t -> node -> int
val pred_stop : t -> node -> int
val pred_edge : t -> int -> int

(** {2 Resource CSR}

    The edges whose Eq. 2 weight a resource's congestion sets: the [Chan r]
    and [Junc r] edges of resource [r] are [resource_edge t k] for
    [k = resource_edges_start t r .. resource_edges_stop t r - 1].  Turn
    and tap edges have fixed weights and belong to no row. *)

val resource_edges_start : t -> Component.resource -> int
val resource_edges_stop : t -> Component.resource -> int
val resource_edge : t -> int -> int

(** {2 Pocket CSR}

    Segment [s]'s {e pocket} is its cells, the traps tapped on them, and
    the horizontal and vertical nodes of the junctions at its ends (one or
    none for a dead-end segment).  The edges entering the pocket from
    outside are [pocket_edge t k] for [k = pocket_edges_start t s ..
    pocket_edges_stop t s - 1].  Every one is a [Junc j] step into an end
    junction [j] — from the other segments and junctions meeting at [j]
    and from traps tapped on [j] — so the whole row weighs [infinity]
    once the end junctions are saturated.  The steps from an end
    junction into [s]'s end cells are [Chan s] edges inside the pocket.
    Rows are filled by a counting pass and a fill pass at {!build}; on the
    grid fabrics they hold 3–6 edges. *)

val pocket_edges_start : t -> int -> int
val pocket_edges_stop : t -> int -> int
val pocket_edge : t -> int -> int

val trap_segment : t -> int -> int
(** The channel segment a trap is tapped on, or [-1] for a trap tapped on
    a junction — the segment whose pocket holds the trap's node. *)

val trap_node : t -> int -> node
(** Node of a trap id — route endpoints. *)

val node_pos : t -> node -> Ion_util.Coord.t

val node_orientation : t -> node -> Cell.orientation option
(** [None] for trap nodes. *)

val pp_node : t -> Format.formatter -> node -> unit

val num_edges : t -> int
(** Directed edge count, for diagnostics. *)
