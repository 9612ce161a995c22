(** The outcome every placement search returns, and the multi-start seed
    pool behind MVFB and Monte-Carlo.

    The paper compares MVFB with Monte-Carlo at an equal placement-run
    budget (Sections IV.A and V.A).  Both draw [m] random center
    placements and differ only in what each start gets: MVFB a
    forward/backward local search ({!Mvfb.search_seed}), Monte-Carlo one
    forward run — the same local search with [max_runs_per_seed = 1].
    {!multistart} is that shared pool.

    Each start's randomness is derived from [(seed, start index)] with
    {!Ion_util.Rng.derive}, so starts are independent and the pool returns
    bit-identical outcomes whether it runs sequentially or fanned out on a
    {!Ion_util.Domain_pool.t}.  Starts drawing an identical placement
    ([Center.place_permuted] repeats permutations on small components)
    share one local search: the duplicates replay its run counts and
    latencies, so reported [runs] and [latencies] are unchanged while
    [evaluations] counts the engine calls actually made.

    Every evaluator a placer takes scores a run ({!Simulator.Engine.score})
    rather than building its trace: a search compares latencies and keeps
    one winner, so only the winner is worth materializing, and the mapper
    replays it once per job. *)

type direction = Forward | Backward

type evaluator = int array -> (Simulator.Engine.score, Simulator.Engine.error) result
(** Scores one placement: MVFB's [forward] and [backward] and every other
    placer's [evaluate]. *)

type outcome = {
  placement : int array;  (** input placement of the winning run *)
  result : Simulator.Engine.score;
      (** the winning run's score; the search builds no trace — the mapper
          replays [(direction, placement)] to materialize it, once per
          job *)
  direction : direction;
      (** [Backward] when a backward (UIDG) run won — the caller must
          time-reverse the replayed trace, see {!Simulator.Trace.reverse};
          its {e final} placement is the forward input placement *)
  runs : int;
      (** placement runs the search reports: MVFB sums its seeds' runs,
          Monte-Carlo reports the requested runs (deduplicated and
          pre-screened-out ones included), the other placers their
          evaluations *)
  evaluations : int;  (** routed engine evaluations actually performed *)
  latencies : float list;  (** latency of every reported run, in run order *)
  truncated : bool;
      (** the search stopped early on an evaluation or wall-clock budget —
          the result is the best of what was evaluated *)
}

val multistart :
  ?pool:Ion_util.Domain_pool.t ->
  ?prescreen:int * (int array -> float) ->
  ?max_evals:int ->
  ?out_of_time:(unit -> bool) ->
  seed:int ->
  starts:int ->
  (int array -> (outcome, Simulator.Engine.error) result) ->
  Fabric.Component.t ->
  num_qubits:int ->
  (outcome, Simulator.Engine.error) result
(** [multistart ~seed ~starts local comp ~num_qubits] draws [starts]
    permuted center placements, runs the deterministic local search
    [local] on each distinct one, and merges in start order: latencies
    concatenate, [runs] and (over distinct starts) [evaluations] add up,
    the first error wins and latency ties keep the earliest start.

    [prescreen = (k, estimate)] searches only the [k] best-estimated
    distinct starts (estimate ties keep the earliest); pre-screened-out
    starts contribute nothing.  [max_evals] keeps only the first
    [max_evals] (at least one) of the searched starts in start order.
    With [out_of_time] the starts fan out in chunks of 8 and the poll runs
    between chunks (which chunk it stops after is inherently
    run-dependent); without it they fan out at once.  A budget cut sets
    [truncated].  [estimate] and [local] must be safe to call from several
    domains at once when a multi-domain [pool] is supplied.

    [Error] (as {!Simulator.Engine.Invalid}) when [starts < 1] or [k < 1],
    else the first failing start's error. *)
