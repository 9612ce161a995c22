(** Simulated-annealing placer — the classical VLSI-style baseline.

    The paper contrasts MVFB with "standard VLSI placement algorithms";
    this is that standard: start from a center placement, repeatedly propose
    a local move (swap two qubits, or relocate one qubit to a free nearby
    trap), accept improvements always and degradations with probability
    [exp (-delta / temperature)], cooling geometrically.  The cost of a
    placement is the full schedule-and-route latency, like every other
    placer here, so the comparison with MVFB is apples to apples at equal
    evaluation counts. *)

module Proposal : sig
  (** O(1) allocation-free neighbour proposal over a candidate trap pool:
      occupancy bitset plus a swap-remove free-trap array. *)

  type move =
    | Swap of int * int  (** exchange the traps of two distinct qubits *)
    | Relocate of int * int  (** move a qubit to a currently free candidate trap *)
    | Stay  (** no free candidate trap — the placement is re-evaluated as-is *)

  type t

  val create : num_traps:int -> int array -> int array -> t
  (** [create ~num_traps pool placement] — occupancy from [placement], free
      list = pool traps not occupied.
      @raise Invalid_argument on an out-of-range or duplicated trap. *)

  val num_free : t -> int
  val is_free : t -> int -> bool

  val draw : t -> Ion_util.Rng.t -> num_qubits:int -> move
  (** Draw a move without touching occupancy: a fair coin chooses swap vs
      relocate (the coin is only spent when [num_qubits >= 2]); swaps pick
      two distinct qubits uniformly, relocations pick a qubit and a free
      candidate trap uniformly ([Stay] when none is free). *)

  val relocate : t -> src:int -> dst:int -> unit
  (** Commit an accepted relocation.  Swaps leave the occupied-trap set
      unchanged and need no commit; rejected moves need no revert because
      [draw] never mutates. *)
end

val greedy_delta :
  rng:Ion_util.Rng.t -> pool:int array -> Estimator.Delta.t -> moves:int -> int
(** [greedy_delta ~rng ~pool delta ~moves] runs [moves] zero-temperature
    delta-SA proposals over the candidate trap [pool]: draw a {!Proposal}
    move, apply it with a zero Metropolis cut-off, commit it when it does
    not raise the estimate and undo it otherwise.  Returns the accepted
    count; [delta] holds the final placement.  The timing loop behind
    [qspr estimate --moves] and bench-smoke's delta speedup floor. *)

val search :
  ?pool:Ion_util.Domain_pool.t ->
  ?prescreen:int * (int array -> float) ->
  ?max_evals:int ->
  ?out_of_time:(unit -> bool) ->
  rng:Ion_util.Rng.t ->
  ?evaluations:int ->
  evaluate:Search.evaluator ->
  Fabric.Component.t ->
  num_qubits:int ->
  (Search.outcome, Simulator.Engine.error) result
(** The schedule is fixed: initial temperature 100 us, cooling 0.95 per
    routed evaluation, a candidate pool of the [3 * num_qubits]
    nearest-center traps.  [evaluations] defaults to 60.  [Error] on
    [evaluations < 1], a [prescreen] with [n < 1], a fabric with fewer
    candidate traps (all as {!Simulator.Engine.Invalid}), or a failing
    evaluation.  The outcome's [runs] and [evaluations] both count the
    routed evaluations, and [latencies] the cost of each, in order.

    Budgets make the anneal anytime: [max_evals] deterministically caps the
    cooling schedule length, and [out_of_time] is polled before each
    evaluation to stop on a wall-clock deadline.  The start placement is
    always evaluated; a budget cut sets [truncated].

    [prescreen = (n, estimate)] draws [n] random starts and anneals from the
    best-estimated one instead of the first draw; the starts consume the rng
    before any fan-out and estimate ties keep the earliest draw, so the
    outcome is deterministic and identical for any [pool] size.  Without
    [prescreen] the rng stream is untouched and the search behaves exactly
    as before. *)

type delta_outcome = {
  placement : int array;  (** best routed placement *)
  result : Simulator.Engine.score;  (** its routed score *)
  moves : int;  (** delta-model proposals evaluated *)
  accepted : int;
  engine_evals : int;  (** routed evaluations (start + incumbents) *)
  best_estimate : float;  (** best delta-model latency reached *)
  max_drift : float;
      (** largest correction any periodic {!Estimator.Delta.resync} made —
          expected [0.], the incremental updates being bit-exact *)
  latencies : float list;  (** routed latencies, in evaluation order *)
  truncated : bool;
}

val search_delta :
  ?max_evals:int ->
  ?out_of_time:(unit -> bool) ->
  rng:Ion_util.Rng.t ->
  ?moves:int ->
  model:Estimator.Model.t ->
  evaluate:Search.evaluator ->
  Fabric.Component.t ->
  num_qubits:int ->
  (delta_outcome, Simulator.Engine.error) result
(** Delta-evaluated annealing: the same acceptance rule as {!search}, but
    each proposal is scored by {!Estimator.Delta.apply_swap}/[apply_move]
    in O(affected gates) — rejected moves cost one [undo] — so the move
    budget runs to the millions where {!search} runs to tens.  Only the
    start and periodically-improved incumbents (every [moves / 4] moves,
    plus a final pass) pay a routed [evaluate]; the returned result is the
    best {e routed} placement's score.  Every 8192 moves the delta state is
    rebuilt from scratch to bound drift; the worst correction is reported
    as [max_drift].

    Uphill moves are applied with a Metropolis cut-off
    ({!Estimator.Delta.apply_swap}'s [cutoff]): the acceptance uniform [u]
    is drawn when the move is first proven uphill, and propagation stops
    once the delta provably exceeds [T (1e-9 - ln u)], a move the
    acceptance test would reject anyway.  The generator is still drawn
    exactly once per uphill move and every decision is unchanged, so
    outcomes are bit-identical to scoring every move in full.

    The schedule is fixed: initial temperature 100 us, cooling set so the
    temperature decays to 1e-4 of its initial value across the move budget,
    the same [3 * num_qubits] candidate pool as {!search}.  [moves]
    defaults to 20_000; [Error] on [moves < 1].
    [max_evals] caps routed evaluations; [out_of_time] is polled every 512
    moves.  Deterministic given [rng]: a pure function of the model,
    component and generator state. *)
