(** Optimality-gap auditor: certified latency lower bounds and
    small-instance exact verification.

    The static bound catalog lives in {!Estimator.Bound} (critical path,
    serialization, capacity, placement) and every {!Qspr.Mapper.solution}
    already carries its certified value.  This module adds the audit layer
    on top:

    - {!exact_optimum}, a branch-and-bound solver for a relaxed machine
      model whose optimum is itself an admissible lower bound — and, since
      the relaxation dominates every static bound, a zero gap against it
      {e proves} the audited mapping optimal for its initial placement;
    - {!audit}, which recomputes the bounds for a solution, cross-checks the
      solution's own claim, optionally runs the exact search, and reports
      everything as {!Finding.t}s (pass ["bound"]) plus a structured
      {!report};
    - the [qspr-audit/1] JSON rendering consumed by [qspr audit --json] and
      the CI golden diff.

    Everything here is a pure function of the mapping context and the
    solution: bound values, exact optima and search node counts are
    bit-identical on every run at any [jobs] width. *)

type exact_result = {
  optimum_us : float;  (** best relaxed makespan found *)
  proved : bool;
      (** the search completed within its node budget, so [optimum_us] is
          the true relaxed optimum and therefore a certified lower bound;
          when [false] the value is only an incumbent and must not be used
          as a bound *)
  nodes : int;  (** branch expansions performed (deterministic) *)
}

val default_node_budget : int

val exact_optimum :
  ?node_budget:int ->
  distance:Estimator.Distance.t ->
  timing:Router.Timing.t ->
  placement:int array ->
  incumbent:float ->
  Qasm.Dag.t ->
  (exact_result, string) result
(** Exact optimum of the relaxed model (congestion-free shortest-path
    travel, serialized ions, one two-qubit gate per trap at a time, QIDG
    dependencies) from the given initial placement.  [incumbent] seeds the
    upper bound — pass the achieved latency; the relaxed optimum can never
    exceed it.  Guarded by fixed instance-size limits (at most 8 qubits,
    20 two-qubit gates and 16 traps): [Error reason] when the instance is
    too large for exhaustive search. *)

type report = {
  latency_us : float;
  bounds : Estimator.Bound.t;  (** the recomputed static catalog *)
  exact : exact_result option;  (** present when the exact search ran *)
  exact_skipped : string option;  (** why --exact was declined, when it was *)
  lower_bound_us : float;  (** best certified bound, static or exact *)
  bound_kind : Estimator.Bound.kind;
  optimality_gap : float;  (** (latency - bound) / bound, >= 0 on sound audits *)
  findings : Finding.t list;
}

val infeasibility_finding : Estimator.Bound.infeasibility -> Finding.t
(** Render a capacity infeasibility as an [Error] finding (kind
    ["infeasible"], pass ["bound"]) — used by [qspr audit] and the fault
    campaign to refuse instances before burning mapper retries. *)

val audit : ?exact:bool -> ?node_budget:int -> Qspr.Mapper.t -> Qspr.Mapper.solution -> report
(** Audit a solution against its context.  Emits [Error] findings for
    forged bound claims (["bound-mismatch"]), bounds above the achieved
    latency (["bound-violation"]) and exact/static inconsistencies; a
    [Hint] (["optimality-gap"]) always reports the certified gap, and
    ["exact-skipped"] records a declined exact search.  Hints never fail an
    audit ({!Finding.exit_code}). *)

val to_json : circuit:string -> placer:string -> report -> Ion_util.Json.t
(** The [qspr-audit/1] report object.  Contains no timing or host fields,
    so its serialization is byte-stable for golden diffs. *)

val render : report -> string
(** Human-readable audit summary: the bound table, the certified bound and
    gap, then the findings. *)
