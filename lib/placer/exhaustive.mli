(** Exhaustive placement search — ground truth for tiny instances.

    Enumerates every injective assignment of the qubits onto the
    [candidate_traps] nearest-to-center traps and evaluates each with a full
    schedule-and-route run.  Factorially expensive, so it exists only to
    measure the optimality gap of the heuristic placers on small circuits
    (an experiment the paper did not have the tooling to run). *)

type outcome = {
  placement : int array;  (** the optimal placement over the candidate set *)
  result : Simulator.Engine.score;  (** the optimal placement's score *)
  evaluated : int;  (** number of placements tried *)
  worst_latency : float;  (** the worst placement's latency, for spread *)
}

val search_space : candidate_traps:int -> num_qubits:int -> int
(** Number of placements the search would evaluate:
    C(candidates, qubits) x qubits!. *)

val search :
  ?candidate_traps:int ->
  evaluate:Search.evaluator ->
  Fabric.Component.t ->
  num_qubits:int ->
  (outcome, Simulator.Engine.error) result
(** [candidate_traps] defaults to [num_qubits + 1].  Searches over more
    than 50_000 placements are refused rather than run.  [Error] when the
    space exceeds that cap or the fabric is too small (both as
    {!Simulator.Engine.Invalid}), or an evaluation fails. *)
