(** A racing portfolio of placement strategies.

    Different placers win on different circuits (MVFB exploits QIDG
    structure, Monte-Carlo wins on small dense programs, delta-annealing
    wins when the move space is large — cf. the solver-portfolio framing of
    Yazdani et al., arXiv:1306.2037).  [race] runs every strategy —
    typically fanned over an [Ion_util.Domain_pool] — and keeps the best
    routed result.

    Determinism contract: each strategy must be deterministic (it carries
    its own seeding) and never read shared mutable state.  Fan-out
    preserves order and the winner is the lowest [(latency, list index)],
    so the outcome is bit-identical at any job count. *)

type strategy = {
  name : string;
  run : unit -> (Search.outcome, Simulator.Engine.error) result;
}

type entry = {
  entry_name : string;
  entry_outcome : (Search.outcome, Simulator.Engine.error) result;
}

type outcome = {
  best : Search.outcome;
  entries : entry list;  (** every strategy's outcome, in input order *)
}

val race :
  ?pool:Ion_util.Domain_pool.t -> strategy list -> (outcome, Simulator.Engine.error) result
(** Runs every strategy (in parallel across [pool] when given) and returns
    the best successful outcome; failed strategies stay visible in
    [entries].  [Error] only when the list is empty ([Invalid]) or every
    strategy failed (the first failure, in input order). *)
