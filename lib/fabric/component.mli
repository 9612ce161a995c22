(** Extraction of fabric components from a cell layout.

    The router and simulator reason about three resources:
    - {b junctions} — unit squares where turns happen, capacity-limited;
    - {b channel segments} — maximal straight runs of channel cells between
      junctions (or dead ends), the unit of congestion accounting in the
      paper's Eq. 2;
    - {b traps} — gate sites, each attached to an adjacent walkable "tap"
      cell from which qubits enter and leave. *)

type junction = { jid : int; jpos : Ion_util.Coord.t }

type segment = {
  sid : int;
  orientation : Cell.orientation;
  cells : Ion_util.Coord.t array;  (** in axis order (west-to-east / north-to-south) *)
}

type trap = {
  tid : int;
  tpos : Ion_util.Coord.t;
  tap : Ion_util.Coord.t;  (** the adjacent channel/junction cell *)
}

type t

val extract : Layout.t -> (t, string) result
(** Fails on traps without a walkable neighbour (also caught by
    {!Layout.parse}; generated layouts are re-checked here). *)

val layout : t -> Layout.t
val junctions : t -> junction array
val segments : t -> segment array
val traps : t -> trap array

(** {2 Resources}

    The contended transit resources of the paper's Eq. 2 — channel segments
    and junctions — share one dense numbering, owned here: segment [s] is
    resource [s] and junction [j] is resource [num_segments + j], so
    [0 .. num_resources - 1] indexes a flat array directly.  The graph's
    [Chan]/[Junc]/[Turn] edge kinds, paths, congestion counts and the
    certifier's capacity sweep all speak these ids. *)

type resource = int

val num_resources : t -> int
(** Segments plus junctions. *)

val is_segment : t -> resource -> bool

(** {2 Cell index}

    One flat int per layout cell, built at extraction. *)

val cell_code : t -> Ion_util.Coord.t -> int
(** The resource id of a channel or junction cell, [-2 - tid] for the trap
    [tid], and [-1] for empty and out-of-bounds cells. *)

val segment_at : t -> Ion_util.Coord.t -> int option
(** Segment owning a channel cell, if any. *)

val junction_at : t -> Ion_util.Coord.t -> int option
val trap_at : t -> Ion_util.Coord.t -> int option

val nearest_traps : t -> Ion_util.Coord.t -> int list
(** All trap ids ordered by Manhattan distance from the given coordinate
    (ties broken by id); the placement and trap-selection primitive. *)
