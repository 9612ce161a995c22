(** Instruction scheduling priorities (paper Section III and prior art).

    The mapping problem is Minimum-Latency Resource-Constrained scheduling;
    all tools surveyed by the paper drive a list scheduler with a priority
    function over the QIDG:

    - [Qspr]: the paper's policy — the number of (transitively) dependent
      operations plus the longest path delay from the instruction to the end
      of the graph, both at unit weight;
    - [Alap]: QUALE's policy — instructions extracted in as-late-as-possible
      order (earlier ALAP start time means higher priority);
    - [Dependents_count]: QPOS's initial priority;
    - [Dependent_delay]: the QPOS tweak of reference [5] — total delay of the
      dependent instructions;
    - [Fixed]: externally imposed order (used to replay a recorded schedule,
      e.g. the reversed schedule S* of an MVFB backward pass).

    Higher priority issues first; ties break toward lower instruction id. *)

type t =
  | Qspr
  | Alap
  | Dependents_count
  | Dependent_delay
  | Fixed of float array

val qspr_default : t
(** [Qspr], the priority the mapper and the estimator issue by. *)

val compute : t -> delay:(Qasm.Instr.t -> float) -> Qasm.Dag.t -> float array
(** Priority of every node.
    @raise Invalid_argument if a [Fixed] array has the wrong length. *)

val order_of_priorities : float array -> int array
(** Node ids sorted by decreasing priority (stable by id) — the total order
    "S" a priority assignment induces, ignoring resource constraints. *)

val replay_order : int array -> t
(** [Fixed] priorities that make a list scheduler reproduce the given total
    order wherever dependencies allow. *)
