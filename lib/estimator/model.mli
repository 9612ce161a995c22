(** LEQA-style fast latency estimator (Dousti & Pedram, arXiv:1501.00742):
    predict the mapped latency of a candidate placement without routing,
    scheduling, or simulation.

    The model pairs the {!Distance} tables of the fabric with an
    event-driven mirror of [Simulator.Engine.run] in which every route
    search is replaced by a table lookup.  The mirror runs on the engine's
    own frontier structures — a [Scheduler.Ready_set] over the caller's
    issue priorities and an [Ion_util.Fheap] of completions — so
    instructions issue in exactly the engine's order whenever their
    operands are free; a two-qubit gate sends both operands
    at issue time to the trap nearest the midpoint of their positions that
    hosts no bystander ion — the engine's own trap choice — pays the
    modeled travel plus the gate delay, and leaves them co-located there.
    Completions free the operands and ready the QIDG successors.  What the
    mirror drops is channel congestion — acquisition, stalls, detours —
    whose average effect a travel-time stretch recovers: QIDG levels packed
    with many concurrent two-qubit gates contend for shared channels, so
    their moves are stretched by a per-extra-gate factor, a level-granular
    collapse of the router's contention term.

    [estimate] performs no routing and no engine run, so thousands of
    candidate placements can be scored for the cost of one routed
    evaluation — the basis of the placement pre-screening pipeline.  Each
    call allocates its own frontier, heap and position arrays (O(n + traps)
    words); the model holds no mutable state. *)

type t

val create :
  graph:Fabric.Graph.t ->
  timing:Router.Timing.t ->
  ?distance:Distance.t ->
  priorities:float array ->
  Qasm.Dag.t ->
  t
(** Builds the distance tables (one Dijkstra per trap) and the per-level
    two-qubit gate census of the QIDG.
    [distance] supplies prebuilt tables instead (the expensive per-fabric
    half — the service batch path shares one set across all jobs on a
    fabric); it must have been built on the same fabric at this timing's
    turn cost.  The congestion stretch is a constant: a two-qubit gate's
    travel time grows by 1% for every concurrent two-qubit gate beyond 2 in
    its level, calibrated against the measured engine on the paper's
    Table-1 circuits (mean absolute relative error about 1%).
    [priorities] are the engine's issue priorities for the DAG's nodes (the
    mapper passes its [Scheduler.Priority.qspr_default] array).  The model
    keeps the array without copying it, so the caller must not mutate it.
    @raise Invalid_argument on a [distance] that doesn't match the graph
    and timing, or a [priorities] array whose length is not the DAG's node
    count. *)

val distance : t -> Distance.t
val num_qubits : t -> int

type view = {
  v_dist : Distance.t;
  v_timing : Router.Timing.t;
  v_nq : int;
  v_kind : int array;  (** 0 declaration, 1 one-qubit gate, 2 two-qubit gate *)
  v_qa : int array;  (** operand / control *)
  v_qb : int array;  (** target, two-qubit gates only *)
  v_stretch : float array;  (** per-instruction congestion travel multiplier *)
  v_succs : int array array;  (** QIDG successor ids (ids are topological) *)
}
(** Read-only window onto the model's flattened instruction stream, the
    substrate of the incremental {!Delta} model.  The arrays are shared
    with the model (no copy) and must not be mutated. *)

val view : t -> view

val estimate : t -> int array -> float
(** [estimate t placement] — predicted execution latency in microseconds of
    mapping the program with [placement.(q)] as qubit [q]'s starting trap.
    A pure function of [(t, placement)]: fanning calls out on
    [Ion_util.Domain_pool] is bit-identical to a sequential loop (all
    mutable state is per call).  Returns [infinity] when the placement puts
    interacting operands in mutually unreachable fabric components.
    @raise Invalid_argument when the placement's arity or trap ids don't
    match the model's program and fabric. *)
