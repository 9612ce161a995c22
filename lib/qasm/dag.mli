(** Quantum Instruction Dependency Graph (QIDG) and its uncompute reverse
    (UIDG).

    Nodes are program instructions.  Dependencies follow read/write
    semantics: a two-qubit gate {e reads} its control and {e writes} its
    target; one-qubit instructions write their operand.  Edges are the usual
    RAW/WAR/WAW hazards, so two gates sharing only a control qubit commute
    and are independent — this matches the paper's ideal-baseline latencies
    (e.g. 510us for the Figure 3 [[5,1,3]] encoder, which has a strict
    shared-qubit chain of length 610us).  The graph is built in program
    order, hence node indices are already a topological order.

    Note the physical machine still serializes two gates that share any ion —
    an ion cannot be in two traps — which the fabric simulator enforces; the
    QIDG is a {e logical} dependence structure used for priorities and the
    ideal lower bound.

    The UIDG ({!reverse}) exists for unitary programs only: gate order is
    reversed and each gate replaced by its inverse, with qubit declarations
    kept at the front.  Executing the UIDG from the final placement of a
    forward run is the backward pass of the paper's MVFB placer. *)

type node = {
  id : int;
  instr : Instr.t;
  preds : int list;  (** instructions this one waits for *)
  succs : int list;  (** instructions waiting for this one *)
}

type t

val of_program : Program.t -> t

val program : t -> Program.t
val nodes : t -> node array
val num_nodes : t -> int
val node : t -> int -> node

val in_degrees : t -> int array
(** A fresh copy of every node's predecessor count, tabulated once when
    the graph is built. *)

val sources : t -> int list
(** Nodes with no predecessors. *)

val sinks : t -> int list
(** Nodes with no successors. *)

val reverse : t -> (t, string) result
(** The UIDG; [Error] if the program is non-unitary. *)

val longest_to_sink : delay:(Instr.t -> float) -> t -> float array
(** [longest_to_sink ~delay g].(i) is the weight of the heaviest path from
    node [i] (inclusive) to any sink — the scheduling priority's second
    term. *)

val critical_path : delay:(Instr.t -> float) -> t -> float
(** Weight of the heaviest path; with routing and congestion ignored this is
    the paper's ideal-baseline execution latency. *)

val dependents : t -> int array
(** [dependents g].(i) is the number of instructions that transitively
    depend on node [i] — the scheduling priority's first term. *)

val asap_times : delay:(Instr.t -> float) -> t -> float array
(** Earliest start time of each node under infinite resources. *)

val gate_levels : t -> int array
(** The QIDG levelization: 0 for a declaration, and for a gate 1 + the
    largest level among its predecessors.  On a validated program (every
    declaration precedes the gates on its qubit) a gate's level is its
    {!asap_times} start under unit gate delay, plus one. *)

val alap_times : delay:(Instr.t -> float) -> t -> float array
(** Latest start time of each node such that the critical path is met;
    QUALE's scheduling extracts instructions in ALAP order. *)

val check_acyclic_consistency : t -> bool
(** Internal invariant: every edge goes from a lower to a higher node id and
    pred/succ lists mirror each other.  Exposed for property tests. *)
