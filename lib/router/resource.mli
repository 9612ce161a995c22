(** Contended fabric resources: channel segments and junctions.

    Traps are not modelled here — trap availability is a placement concern
    handled by the mapper's trap selection, while segments and junctions are
    the transit resources of the paper's Eq. 2.

    A resource is a single {e immediate} int (no heap block):

    {v
      bit 0      tag: 1 = segment, 0 = junction
      bits 1..   segment / junction id
    v}

    The packed value is a plain int, so its hash and the iteration order
    of a table keyed on resources depend only on the ids, and it indexes
    flat arrays directly ({!to_int}) — the pathfinder's occupancy/history
    tables and the congestion mirrors are arrays, not hashtables.
    Pattern-matching consumers unpack at the boundary via {!view}. *)

type t = private int

type view = Segment of int | Junction of int

val segment : int -> t
val junction : int -> t

val view : t -> view
(** Unpack for pattern matching (allocates one block; keep it off hot
    paths — use {!is_segment}/{!id} there). *)

val is_segment : t -> bool
val id : t -> int

val to_int : t -> int
(** The packed value, for flat-array indexing.  Non-negative; bounded by
    [2 * max(num_segments, num_junctions) + 1] on a given fabric. *)

val of_int : int -> t
(** Trusted inverse of {!to_int}: the argument must be a value previously
    obtained from {!to_int}/{!pack_of_edge} (not {!none}). *)

val none : int
(** Sentinel packed value ([-1]) meaning "no resource": what {!pack_of_edge}
    returns for turn and tap edges. *)

val pack_of_edge : Fabric.Graph.edge_kind -> int
(** Allocation-free [of_edge]: the packed resource an edge consumes, or
    {!none} for [Turn]/[Tap] edges. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

val of_edge : Fabric.Graph.edge_kind -> t option
(** The resource an edge consumes: [Chan]/[Junc] steps map to their segment
    or junction; [Turn] happens inside a junction the qubit already occupies
    and [Tap] hops are free, so both map to [None]. *)

module Tbl : Hashtbl.S with type key = t
