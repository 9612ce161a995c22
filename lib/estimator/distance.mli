(** Trap-to-trap distance tables over the turn-aware routing graph — the
    fabric half of the LEQA-style latency estimator.

    Distances are in the move-unit metric the router uses (every
    channel/junction/tap step costs one move, a turn costs [turn_cost]
    moves).  A table set is a view of one {!Router.Lower_bound} store at
    the trap nodes: trap [a]'s row is the store's table toward trap [a]'s
    node, swept on its first read by any layer ([Mapper] hands the store
    to its route cache).  A job reads only the rows of the traps its
    qubits pass through, so a fabric's cost grows with its use, not with
    its trap count.

    The meeting trap mirrors the engine's two-qubit trap selection: the
    meeting trap of operands at [a] and [b] is the trap minimizing the
    makespan [max (d a m) (d b m)] of moving both operands there (ties
    broken by total distance, then by trap id) — the estimator's stand-in
    for "nearest available trap to the median".  {!meet} scans rows [a]
    and [b] on every call; no meeting table is kept outside {!tables}.

    A table set is shared across domains.  Its only mutable state is the
    store's write-once cells and one for {!tables}, each published by an
    [Atomic]; domains racing on a cell compute equal values and all adopt
    the first one published, so every read returns the same bits at any
    jobs width. *)

type t

val build : Fabric.Graph.t -> turn_cost:float -> t
(** A view of a fresh store ({!Router.Lower_bound.create}): O(edges +
    nodes), no sweep.  [turn_cost] is the turn-edge weight in move units
    (see {!Router.Timing.turn_cost_in_moves}).
    @raise Invalid_argument on a negative or NaN turn cost. *)

val num_traps : t -> int

val store : t -> Router.Lower_bound.t
(** The store the view reads; its turn cost is the one the tables were
    built at. *)

val trap_nodes : t -> int array
(** The graph node of each trap, by trap id.  Shared: treat it as frozen. *)

val row : t -> int -> Router.Lower_bound.table
(** [row t a] — trap [a]'s table ({!Router.Lower_bound.toward}), indexed
    by graph node: {!between}[ t a b] is [(row t a).((trap_nodes t).(b))].
    Shared, not copied: treat it as frozen.  Loops over many destinations
    fetch the row once. *)

val between : t -> int -> int -> float
(** [between t a b] — shortest travel distance from trap [a] to trap [b] in
    move units ([infinity] when unreachable, [0.] when [a = b]). *)

val meet : t -> int -> int -> int
(** The meeting trap for operands at [a] and [b], by an O(traps) scan of
    their rows; [meet t a a = a], [meet t a b = meet t b a], and a pair
    with no finite meeting trap gets the lower of the two ids. *)

val tables : t -> float array * int array
(** Dense row-major [num_traps * num_traps] distance and meeting-trap
    tables, equal to {!between} and {!meet} everywhere.  The first call
    reads every trap's row and runs the O(traps{^3}) meeting scan; the pair
    is kept, so later calls return the same arrays.  Shared, not copied:
    treat them as frozen.  Only the {!Delta} model's proposal loop needs
    them (a CI step keeps other callers out). *)
