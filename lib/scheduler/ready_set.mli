(** Dynamic ready-set manager for list scheduling over a QIDG.

    Tracks, for every instruction, how many predecessors are still
    unfinished; exposes the ready instructions in priority order; and keeps
    the paper's {e busy queue} of instructions that were ready but could not
    be routed — those return to the ready set when the fabric state changes
    ({!requeue_busy}).

    The frontier is kept incrementally: after {!create} no operation scans
    all [n] instructions.  With [k] ready ids, {!mark_issued}, {!defer},
    {!is_ready} and the counts are O(1), {!mark_done} is O(successors),
    {!iter_ready} is O(k{^ 2}) (an insertion sort of the snapshot), {!ready}
    is O(k log k) and {!requeue_busy} is O(deferred ids). *)

type t

val create : Qasm.Dag.t -> priorities:float array -> t
(** O(n) in the instruction count.
    @raise Invalid_argument on length mismatch. *)

val ready : t -> int list
(** Ready, unissued, non-deferred instructions, highest priority first
    (ties toward lower id). *)

val ready_count : t -> int
(** [List.length (ready t)], in O(1). *)

val iter_ready : t -> (int -> unit) -> unit
(** [iter_ready t f] applies [f] to exactly the ids [ready] would return,
    in the same order, without allocating: a reusable internal buffer
    snapshots the ready set before the first call to [f], so [f] may
    mutate the set (issue, defer, complete) just as engine issue rounds
    do when iterating the materialized list.  Not reentrant: [f] must not
    itself call [iter_ready] on the same [t]. *)

val is_ready : t -> int -> bool

val mark_issued : t -> int -> unit
(** Removes from the ready set (the instruction is now in flight).
    @raise Invalid_argument if it was not ready. *)

val mark_done : t -> int -> int
(** Completes an issued instruction, unblocking its dependents; returns
    how many instructions became ready as a result, read with {!readied}.
    Source nodes (declarations) may complete without being issued.
    Allocates nothing. *)

val readied : t -> int -> int
(** [readied t j], for [j] below the count the last {!mark_done} returned,
    is the [j]-th instruction it readied, in ascending id.  Valid until
    the next operation on [t].
    @raise Invalid_argument on an index out of that range. *)

val defer : t -> int -> unit
(** Moves a ready instruction to the busy queue. *)

val requeue_busy : t -> unit
(** Busy-queue instructions become ready again; O(deferred ids). *)

val busy_count : t -> int
val done_count : t -> int
val all_done : t -> bool
val in_flight_count : t -> int
