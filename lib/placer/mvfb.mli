(** Multi-start Variable-length Forward/Backward placer (paper Section IV.A).

    Quantum computations are reversible: executing the uncompute graph (UIDG)
    backward from the final placement of a forward run yields a new input
    placement.  MVFB exploits this.  For each of [m] random center-placement
    seeds it alternates forward runs (QIDG, schedule S) and backward runs
    (UIDG, under the reversed schedule), feeding each run's final placement to the
    next, until the best latency seen in the local search has not improved
    for 3 consecutive runs (the paper's stopping rule, a constant).  The
    reported solution is the best forward or backward computation over all
    seeds — a backward solution's control trace, replayed by the caller,
    must be time-reversed to execute (see {!Simulator.Trace.reverse}), and
    its {e final} placement is the forward input placement.

    Unlike standard VLSI placers, MVFB is schedule-aware: the cost of a
    placement is the measured latency of the full scheduled-and-routed run,
    not a netlist wirelength proxy.

    The seeds are the starts of {!Search.multistart}, the pool Monte-Carlo
    shares: it derives each seed's randomness from [(seed, seed index)],
    dedups identical starts, pre-screens and merges in seed order, so the
    search is bit-identical at any pool size.  MVFB reports [runs] summed
    over its seeds (duplicates replayed). *)

type direction = Search.direction = Forward | Backward

val search_seed :
  max_runs_per_seed:int ->
  forward:Search.evaluator ->
  backward:Search.evaluator ->
  int array ->
  (Search.outcome, Simulator.Engine.error) result
(** One seed's local search from its initial placement: forward, backward,
    forward, … until 3 runs in a row bring no improvement or
    [max_runs_per_seed] runs are spent.  Deterministic given the placement.
    With [max_runs_per_seed = 1] it is one forward run — a Monte-Carlo
    start.  [Error] on the first failing run. *)

val search :
  ?pool:Ion_util.Domain_pool.t ->
  ?prescreen:int * (int array -> float) ->
  seed:int ->
  m:int ->
  ?max_runs_per_seed:int ->
  forward:Search.evaluator ->
  backward:Search.evaluator ->
  Fabric.Component.t ->
  num_qubits:int ->
  (Search.outcome, Simulator.Engine.error) result
(** [max_runs_per_seed] (default 64) bounds pathological non-converging
    seeds.  [Error] on [m < 1], a [prescreen] with [k < 1] (both as {!Simulator.Engine.Invalid}),
    or when an evaluation fails (the first failure in seed order is
    reported).  [prescreen = (k, estimate)]
    locally searches only the [k] best-estimated unique seeds; [estimate],
    [forward], and [backward] must be safe to call from several domains at
    once when a multi-domain [pool] is supplied.  The evaluation budget is
    not applied: every searched seed runs to its stopping rule. *)
