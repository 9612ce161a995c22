(** Flat binary min-heap with float priorities and int payloads.

    The specialization the router's hot loop needs: priorities and payloads
    live in two parallel unboxed arrays, so pushing and popping allocate
    nothing once the heap has warmed up (a polymorphic heap would box a
    tuple per entry).  Peeking is split into {!top_prio}/{!top_data} for the
    same reason.

    The representation is exposed for the same reason {!Router.Workspace}
    exposes its arrays: without flambda, a [float] crossing a function
    boundary is boxed, so [add q p v] and [top_prio q] each cost one minor
    block no matter how hot the loop.  Allocation-critical loops instead
    store/read [prio] directly (unboxed float-array accesses) and call
    {!ensure_room}/{!sift_up}, which move no floats across the boundary:

    {[
      Fheap.ensure_room q;
      q.Fheap.prio.(q.size) <- p;   (* unboxed store *)
      q.Fheap.data.(q.size) <- v;
      q.size <- q.size + 1;
      Fheap.sift_up q (q.size - 1)
    ]}

    and pop by reading slot 0 before {!drop_min}, which moves no float
    either:

    {[
      let t = q.Fheap.prio.(0) and v = q.Fheap.data.(0) in
      Fheap.drop_min q
    ]}

    Both sifts move a hole: the sifting entry is written once where it
    lands, and the comparisons are a swap-based sift's, in the same order
    — the strict [p < prio parent] going up; going down the left child
    when strictly smaller than the entry, then the right child when
    strictly smaller than the smaller of the two.  So a sequence of pushes
    and pops leaves the same layout, and pops the same entries, ties
    included, as a swap-based heap would.  [Router.Dijkstra.run_into]
    inlines both sifts with exactly these comparisons (its loop would
    otherwise pay a real call per pop and push under [-opaque]).

    Everyone else should keep to the functions below. *)

type t = {
  mutable prio : float array;  (** priorities; slots >= [size] are stale *)
  mutable data : int array;  (** payloads, parallel to [prio] *)
  mutable size : int;
}

val create : ?capacity:int -> unit -> t
val length : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** O(1); keeps the backing arrays for reuse. *)

val add : t -> float -> int -> unit
(** Boxes the priority at the call boundary; see the manual-push recipe
    above for allocation-critical loops. *)

val ensure_room : t -> unit
(** Grows the backing arrays when full — call before a manual push. *)

val sift_up : t -> int -> unit
(** Restores the heap invariant upward from slot [i] — call after a manual
    push of slot [i]. *)

val top_prio : t -> float
(** @raise Invalid_argument when empty. *)

val top_data : t -> int
(** @raise Invalid_argument when empty. *)

val drop_min : t -> unit
(** Removes the minimum entry.  @raise Invalid_argument when empty. *)
