(** Incremental latency estimation: the delta model behind million-move
    simulated annealing.

    A {!t} materializes one full evaluation of a simplified longest-path
    variant of {!Model} — static min-makespan meeting traps
    ([Distance.meet]) instead of the occupancy-aware scan, operands
    serialized along per-qubit gate chains — as cached per-gate completion
    times and operand positions.  {!apply_swap} and {!apply_move} then
    update the cached state in O(gates whose dependency cone is touched by
    the moved qubits), returning the latency delta; {!undo} reverts a
    rejected move from a journal in the same O(affected) time, so rejected
    proposals are free — and with a [cutoff], a move proven worse than the
    caller would accept stops propagating there.  The incremental path is
    bit-exact against a full from-scratch evaluation of the same delta model
    (both run the identical recomputation code over the identical inputs);
    {!resync} re-runs the full pass anyway as a periodic drift bound.

    Instances are mutable and single-owner: fan work across domains by
    giving each worker its own [create], never by sharing a [t].  The delta
    model is a coarser physics than [Model.estimate] (it drops occupancy
    and issue-order coupling), so annealers should score incumbents they
    actually care about with [Model.estimate] or a routed run — see
    [Placer.Annealing.search_delta]. *)

type t

val create : Model.t -> int array -> t
(** [create model placement] materializes the delta state from one full
    evaluation.  The placement must be injective (one ion per trap).
    @raise Invalid_argument on arity mismatch, an out-of-range trap, or a
    duplicate trap assignment. *)

val eval : Model.t -> int array -> float
(** One-shot from-scratch evaluation of the delta model — the reference
    the incremental updates are tested against. *)

val latency : t -> float
(** Current modeled makespan (max completion over chain sinks). *)

val num_qubits : t -> int
val num_traps : t -> int

val trap_of : t -> int -> int
(** Current trap of a qubit. *)

val occupant : t -> int -> int
(** Qubit currently assigned to a trap, or [-1] when the trap is free. *)

val placement : t -> int array
(** Copy of the current placement. *)

val apply_swap : ?cutoff:(unit -> float) -> t -> int -> int -> float
(** [apply_swap t q1 q2] exchanges the traps of two distinct qubits and
    returns the latency delta, leaving a transaction open: the caller must
    {!commit} (accept) or {!undo} (reject) before the next apply.

    [cutoff] lets a caller that rejects large uphill moves stop paying for
    them.  Every recomputed gate's completion plus its static tail (the gate
    delays on its longest path to a sink) is a lower bound on the new
    makespan.  The first time one exceeds the old latency (by a relative
    slack of 1e-9) the delta is proven positive and [cutoff ()] is called,
    exactly once, to return [dmax], the largest delta the caller would still
    accept.  Once a bound exceeds [old latency + dmax] (by the same slack),
    propagation stops and [infinity] is returned: the move is {e aborted},
    its true delta exceeds [dmax], and it must be {!undo}ne.  [cutoff] is
    never called when the true delta is [<= 0.], and any result other than
    [infinity] is bit-identical to the delta computed without [cutoff].
    @raise Invalid_argument on out-of-range or identical qubits, or when a
    transaction is already open. *)

val apply_move : ?cutoff:(unit -> float) -> t -> int -> int -> float
(** [apply_move t q trap] relocates qubit [q] to a currently free trap and
    returns the latency delta, leaving a transaction open.  [cutoff] behaves
    as in {!apply_swap}.
    @raise Invalid_argument when the trap is occupied or out of range, or
    when a transaction is already open. *)

val commit : t -> unit
(** Accept the open transaction.
    @raise Invalid_argument when no transaction is open, or when the move
    was aborted by its cutoff (only {!undo} is allowed then). *)

val undo : t -> unit
(** Revert the open transaction exactly — bitwise — from the journal,
    aborted or not.  Until then {!latency} reports the pre-move value of an
    aborted move. *)

val in_transaction : t -> bool

val resync : t -> float
(** Full from-scratch re-evaluation of the cached state (the periodic
    drift bound); returns the largest absolute per-gate completion-time
    correction made, expected [0.] since the incremental path is bit-exact.
    @raise Invalid_argument while a transaction is open. *)
