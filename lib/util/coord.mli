(** Integer grid coordinates and directions on the fabric.

    The fabric is a raster of cells addressed by [(x, y)] with [x] growing
    rightward (columns) and [y] growing downward (rows), matching the ASCII
    renderings in the paper's Figure 4. *)

type t = { x : int; y : int }

val make : int -> int -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val manhattan : t -> t -> int

val midpoint : t -> t -> t
(** Coordinate-wise integer midpoint; the paper's "median location" of the
    two operands of a 2-qubit instruction. *)

val add : t -> t -> t

type dir = North | South | East | West

val all_dirs : dir list
val step : t -> dir -> t
val opposite : dir -> dir
val dir_between : t -> t -> dir option
(** Direction of a unit step from the first cell to the second, if they are
    4-neighbours. *)

val is_horizontal : dir -> bool

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t
