(** The mapping-as-a-service engine behind [qspr serve].

    This one interface drives the CLI daemon, the batch runner, the tests
    and the throughput bench, so every consumer exercises the identical
    admission, scheduling and cache-sharing machinery.

    {2 Admission control}

    Admission is one chain of seven tier functions in [scheduler.ml], in
    order; the first that refuses answers with a [Rejected] verdict
    naming its stage:

    + [request_tier]: the placer must be a {!Qspr.Mapper.strategies} name;
    + [deadline_tier]: a request whose [deadline_ms] has already expired
      on arrival is refused before any work is spent on it;
    + [lint_tier]: [Analysis.Registry.lint_static] over the program and
      fabric; severity-2 findings refuse the job, never a mapper exception;
    + [budget_tier]: a requested [max_evals] above the service ceiling;
    + [admission_tier]: the fabric's registry entry and the mapper context
      (refused when either cannot be built, e.g. for an empty program);
    + [quote_tier]: the LEQA-style estimate of a deterministic center
      placement (~89x cheaper than routing), refused when infinite or
      above the service's or the client's ceiling;
    + [ladder_tier]: the degradation ladder (below), the only tier that
      takes a slot.

    {2 The degradation ladder}

    Under overload the service degrades before it refuses.  The admission
    slot — the count of jobs that already reached the ladder decision in
    this submission — picks the service level:

    - below [shed_start] (default [max_pending / 2]): {b full} service,
      the requested placer with the requested budgets;
    - the headroom between [shed_start] and [max_pending] is split into
      three equal rungs: {b prescreen} (estimator-prescreened MVFB routing
      only the top 2 candidates), {b budgeted} (a single deterministic
      routed center placement), and {b quote} (an estimate-only rejection
      carrying the quote, stage ["shed"]);
    - at [max_pending] and beyond: refusal, stage ["queue"].

    Executed shed rungs are visible in the response: [Completed.shed]
    names the rung, a synthetic ["shed:<rung>"] attempt opens the audit
    trail, and [degraded] is forced on.  The rung is a pure function of
    (limits, slot) and slots are assigned sequentially on the main domain,
    so shedding is bit-identical at any [jobs] width.

    {2 Deadlines}

    A job's [deadline_ms] is armed on the monotonized service clock at
    admission and carried in the mapper budget
    ({!Qspr.Config.budget.deadline}).  Cooperative checkpoints in the
    engine event loop, Pathfinder negotiation rounds and placer evaluation
    chunks abort the search with the typed
    {!Qspr.Mapper.Deadline_exceeded} error, which surfaces as a [Failed]
    verdict — never a hung request.

    {2 Shared warm caches}

    Per-fabric state is keyed by a digest of the fabric's canonical ASCII
    rendering plus the base-weight turn cost.  For each fabric the service
    keeps: the extracted component and routing graph (shared physically by
    every job, so cache keys agree), the estimator's distance tables (a
    view of one {!Router.Lower_bound} store: the lower-bound table toward
    each trap, one Dijkstra sweep swept by its first reader and shared by
    the quote, the bounds and every job's engine A* searches; a job's
    [bound_builds] counts the tables its own lookups swept because no
    earlier reader had), and a frozen {!Router.Route_cache.snapshot} of
    warm base-weight paths (and the stores behind them).  Jobs run with a private route cache that
    consults the snapshot read-only; after each wave the private caches are frozen
    back into the snapshot, so later jobs on the fabric start warm.
    Snapshots are immutable after build and published through the pool's
    queue mutex, which is what makes cross-domain sharing safe.

    The registry holds at most [max_fabrics] entries with LRU eviction
    ({!Ion_util.Lru}), so a stream of distinct fabrics cannot grow the
    heap without bound; evictions are counted in {!stats} and in every
    response's cache section.  Completed full-service responses are also
    cached ([response_cache] entries, optional [response_ttl_s] expiry)
    keyed on the job's deterministic encoding: a repeat of an identical
    job is served from the cache with [cached = true] and a byte-identical
    deterministic encoding.

    {2 Determinism}

    Job results (latency, trace, certificate digest, attempts) are a pure
    function of the job and the service's base configuration: warm cache
    hits replay the uncached searches bit-for-bit, wall-clock budgets are
    stripped, and each job runs its placer sequentially in one pool slot.
    Batch at any [jobs] count, sequential submission, warm or cold — all
    produce byte-identical deterministic response encodings.  Only the
    [cache]/[cpu_s] observability sections vary. *)

type t

type limits = {
  jobs : int;  (** wave width: jobs mapped concurrently (1 = sequential) *)
  max_pending : int;  (** admitted jobs per submission before queue-full *)
  max_quote_us : float option;
      (** refuse jobs whose estimator quote exceeds this latency *)
  max_evals : int option;
      (** ceiling on requested [max_evals]; also the default per-job
          evaluation budget when a job requests none *)
  shed_start : int option;
      (** admission slot where the degradation ladder starts
          (default [max_pending / 2], min 1); clamped to
          [\[0, max_pending\]] *)
  max_fabrics : int;
      (** warm-state registry capacity; least-recently-served fabric
          evicted beyond it (0 disables warm sharing entirely) *)
  response_cache : int;
      (** response cache capacity in entries (0 disables) *)
  response_ttl_s : float option;
      (** optional response time-to-live on the service clock *)
}

val default_limits : limits
(** [jobs = 1], [max_pending = 64], no quote or eval ceilings, ladder at
    [max_pending / 2], [max_fabrics = 8], [response_cache = 256], no
    response TTL. *)

val create : ?limits:limits -> ?config:Qspr.Config.t -> unit -> t
(** A fresh service: empty fabric registry, zeroed counters.  [config]
    (default {!Qspr.Config.default}) supplies timing, policies and placer
    parameters; its wall-clock budget is stripped and its [jobs] field is
    overridden to 1 per job (parallelism is across jobs, not within). *)

val submit : t -> Protocol.job -> Protocol.response
(** Admit and run one job synchronously.  Warm per-fabric state persists
    on [t], so repeated submissions against one fabric get warmer. *)

val run_batch :
  ?on_result:(Protocol.job -> Protocol.response -> unit) ->
  t ->
  Protocol.job list ->
  Protocol.response list
(** Admit every job, then map the admitted ones in waves across a pool of
    [min limits.jobs admitted] domains (none is spawned beyond the main
    one when at most one job is admitted), merging warm tables between
    waves.  Responses are in input order, and their deterministic
    encodings are byte-identical to [submit]ting each job sequentially.

    [on_result] streams each (job, response) pair in input order as soon
    as it is final: refusals immediately, mapped jobs as their wave
    completes. *)

val handle_line : ?deterministic:bool -> t -> string -> string
(** One protocol round: {!serve_batch}'s path for a single line (blank or
    not).  Malformed requests become structured [Rejected]/["request"]
    responses rather than exceptions. *)

val serve_batch :
  ?deterministic:bool ->
  ?journal:string ->
  emit:(string -> unit) ->
  t ->
  string list ->
  (int, string) result
(** Serve a file of request lines as one batch ([qspr serve --batch]).
    Blank lines are skipped; a malformed line is answered in place with a
    [Rejected]/["request"] response and consumes no ladder slot; every
    well-formed request shares one {!run_batch}, so distance tables and
    warm route snapshots are amortized across the file.  [emit] receives
    each response line ({!Protocol.response_to_line}) in input order as
    soon as it and every line before it are final.

    With [journal] the batch is crash-only ({!Journal}): the journaled
    prefix is checked against the batch's request keys and re-emitted
    verbatim, the ladder resumes at the slot the interrupted run had
    reached, and each fresh response is appended to the journal before
    it is emitted.  The concatenated output is byte-identical to an
    uninterrupted run.

    Returns the tiered exit code over every response
    ({!Protocol.exit_code}), or [Error] — before emitting anything — when
    the journal does not match the batch. *)

(** The degradation-ladder rungs, cheapest-to-serve last. *)
type rung = Full | Prescreen | Budgeted | Quote_only | Refused

val rung_of : limits -> slot:int -> rung
(** Pure ladder policy: the rung a job admitted at [slot] receives. *)

val rung_name : rung -> string
(** The wire name carried in [Completed.shed] (["none"] for [Full]). *)

type stats = {
  fabrics : int;  (** distinct fabrics in the registry *)
  fabric_evictions : int;  (** warm fabric entries dropped by the LRU cap *)
  shared_paths : int;  (** warm path entries across all snapshots *)
  distance_rows : int;
      (** lower-bound tables built in the registry's stores
          ({!Router.Lower_bound.built} of each fabric's
          {!Estimator.Distance.store}), whichever layer swept them; never
          part of a response *)
  response_hits : int;  (** responses served from the response cache *)
  response_evictions : int;  (** response entries evicted or expired *)
  completed : int;
  rejected : int;
  failed : int;
  shed : int;  (** jobs answered below full service (rungs + quote-only) *)
}

val stats : t -> stats
