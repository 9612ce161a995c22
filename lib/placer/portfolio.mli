(** A racing portfolio of placement strategies.

    Different placers win on different circuits (MVFB exploits QIDG
    structure, Monte-Carlo wins on small dense programs, delta-annealing
    wins when the move space is large — cf. the solver-portfolio framing of
    Yazdani et al., arXiv:1306.2037).  [race] runs every strategy —
    typically fanned over an [Ion_util.Domain_pool] — and keeps the best
    routed result.

    Determinism contract: each strategy must be deterministic given its
    inputs — either the per-index stream [race] hands it
    ([Rng.derive seed ~index], via {!Ion_util.Domain_pool.map_seeded}) or
    its own internal seed — and never read shared mutable state.  Fan-out
    preserves order and the winner is the lowest [(latency, list index)],
    so the outcome is bit-identical at any job count. *)

type strategy_outcome = {
  placement : int array;  (** input placement of the winning run *)
  result : Simulator.Engine.result;
  direction : Mvfb.direction;
      (** [Backward] when an MVFB strategy won on a backward run — the
          caller must time-reverse the trace, as for {!Mvfb.search} *)
  runs : int;
      (** placement runs the strategy reports: MVFB and Monte-Carlo count
          deduplicated and pre-screened-out runs, the others their
          evaluations *)
  evaluations : int;  (** routed engine evaluations the strategy spent *)
  latencies : float list;  (** routed latencies, in evaluation order *)
  truncated : bool;
}

type strategy = {
  name : string;
  run : rng:Ion_util.Rng.t -> (strategy_outcome, Simulator.Engine.error) result;
      (** [rng] is the strategy's slot in the race's derived-stream space;
          strategies carrying their own seeding discipline (the classic
          placers, matching their standalone runs bit-for-bit) may ignore
          it *)
}

type entry = {
  entry_name : string;
  entry_outcome : (strategy_outcome, Simulator.Engine.error) result;
}

type outcome = {
  winner : string;  (** name of the winning strategy *)
  best : strategy_outcome;
  entries : entry list;  (** every strategy's outcome, in input order *)
}

val race :
  ?pool:Ion_util.Domain_pool.t ->
  seed:int ->
  strategy list ->
  (outcome, Simulator.Engine.error) result
(** Runs every strategy (in parallel across [pool] when given, via
    {!Ion_util.Domain_pool.map_seeded} with [seed] as the fan-out root)
    and returns the best successful outcome; failed strategies stay
    visible in [entries].  [Error] only when the list is empty ([Invalid])
    or every strategy failed (the first failure, in input order). *)
