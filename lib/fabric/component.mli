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

val segment_at : t -> Ion_util.Coord.t -> int option
(** Segment owning a channel cell, if any. *)

val junction_at : t -> Ion_util.Coord.t -> int option
val trap_at : t -> Ion_util.Coord.t -> int option

val nearest_traps : t -> Ion_util.Coord.t -> int list
(** All trap ids ordered by Manhattan distance from the given coordinate
    (ties broken by id); the placement and trap-selection primitive. *)
