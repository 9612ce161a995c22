(** Mapper configuration: technology timing, engine policies and placer
    parameters, defaulting to the paper's experimental setup (Section V.A). *)

type budget = {
  wall_s : float option;
      (** wall-clock budget in seconds — searches stop between evaluations
          once it is spent and return best-so-far marked degraded.  Where the
          cut lands is inherently run-dependent; use [max_evals] when
          bit-reproducibility matters.  Measured on the monotonized
          {!Ion_util.Clock}, so a stepped wall clock cannot hang or
          instantly expire the budget. *)
  max_evals : int option;
      (** deterministic evaluation cap — at most this many full engine
          evaluations per search, truncating candidates in run order. *)
  deadline : Ion_util.Clock.deadline option;
      (** hard end-to-end deadline (armed by the service from the request's
          [deadline_ms]).  Unlike [wall_s] — which truncates gracefully to
          best-so-far — an expired deadline aborts the search at the next
          cooperative checkpoint (engine event batch, Pathfinder negotiation
          round, annealer move chunk) with the typed [Deadline_exceeded]
          mapper error. *)
}

val no_budget : budget
(** Both limits off — run to completion. *)

type t = {
  timing : Router.Timing.t;
  qspr_policy : Simulator.Engine.policy;
  quale_policy : Simulator.Engine.policy;
  m : int;  (** MVFB random seeds (the paper evaluates 25 and 100) *)
  sa_moves : int;
      (** delta-annealing move budget per stream — proposals scored by the
          incremental {!Estimator.Delta} model, not routed evaluations *)
  patience : int;  (** stop a local search after this many non-improving runs *)
  rng_seed : int;  (** root seed for all randomized placement *)
  jobs : int;
      (** worker domains for placement search fan-out; 1 = sequential.
          Results are bit-identical at any job count. *)
  prescreen_k : int option;
      (** estimator pre-screening: fully route only the [k] best-estimated
          candidate placements per search; [None] routes every candidate. *)
  budget : budget;
      (** anytime-search budgets for the randomized placers; see {!budget}. *)
}

val default : t
(** Paper values: T_move=1us, T_turn=10us, T_1q=10us, T_2q=100us, channel
    capacity 2, m=100, patience 3, seed 2012; sequential ([jobs] 1), no
    pre-screening, no budget, 20_000 delta-annealing moves.  A constant:
    the library never reads the environment. *)

val of_env : (string -> string option) -> t -> t
(** [of_env getenv base] applies the environment overrides that the
    command-line tools honour, looking each variable up with [getenv]:
    - [QSPR_JOBS] sets [jobs];
    - [QSPR_PRESCREEN] sets [prescreen_k];
    - [QSPR_SA_MOVES] sets [sa_moves];
    - [QSPR_BUDGET] sets [budget.wall_s] (seconds, a float);
    - [QSPR_BUDGET_EVALS] sets [budget.max_evals].

    Values are trimmed; integers must be at least 1 and the wall-clock
    budget positive.  An unset, unparsable or out-of-range variable leaves
    [base]'s field as it was. *)

val with_m : int -> t -> t
val with_sa_moves : int -> t -> t
val with_seed : int -> t -> t
val with_jobs : int -> t -> t
val with_prescreen : int option -> t -> t
val with_budget : budget -> t -> t
val with_incremental : bool -> t -> t
(** A shim kept only for the benchmark harness's [with_incremental true]
    call ([qbench/bench.ml]): [true] returns the config unchanged.  The
    route cache and dirty-net rerouting are the only routing stack, so
    there is nothing to switch off.  Delete this together with that call
    (ROADMAP item D).
    @raise Invalid_argument on [false]: the legacy routing stack was
    removed. *)

val validate : t -> (t, string) result
(** Checks positivity of [m], [patience], [jobs], [prescreen_k] and the
    budget limits, and capacity sanity. *)
