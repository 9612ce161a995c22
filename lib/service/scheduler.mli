(** The mapping-as-a-service engine behind [qspr serve].

    This one interface drives the CLI daemon, the batch runner, the tests
    and the throughput bench, so every consumer exercises the identical
    admission, scheduling and cache-sharing machinery.

    {2 Admission control}

    Every job passes the same ingress tiers, in order: request validation
    (placer name), the {b deadline} tier (a request whose end-to-end
    [deadline_ms] has already expired on arrival is refused before any
    work is spent on it), {b lint} ([Analysis.Registry.lint] over the
    program and fabric — severity-2 findings produce a structured
    rejection instead of a mapper exception), mapper-context construction,
    the {b budget} tier (a requested [max_evals] above the service ceiling
    is refused), the {b quote} tier (the LEQA-style estimator predicts the
    latency of a deterministic center placement — ~89x cheaper than
    routing — and the job is refused when the quote exceeds the service's
    or the client's ceiling), and the {b ladder} tier (below).

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
    every job, so cache keys agree), the estimator's trap-to-trap distance
    tables (one Dijkstra per trap, built once and shared), and a frozen
    {!Router.Route_cache.snapshot} of warm lower-bound tables and
    base-weight paths.  Jobs run with a private route cache that consults
    the snapshot read-only; after each wave the private caches are frozen
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
  ?first_slot:int ->
  ?on_result:(Protocol.job -> Protocol.response -> unit) ->
  t ->
  Protocol.job list ->
  Protocol.response list
(** Admit every job, then map the admitted ones across [limits.jobs]
    domains in waves, merging warm tables between waves.  Responses are
    in input order, and their deterministic encodings are byte-identical
    to [submit]ting each job sequentially.

    [first_slot] (default 0) pre-advances the ladder slot counter — the
    journal replay path uses it so a resumed batch sheds exactly as the
    interrupted run would have.  [on_result] streams each (job, response)
    pair in input order as soon as it is final: refusals immediately,
    mapped jobs as their wave completes — the crash-only journal appends
    from this callback. *)

val handle_line : ?deterministic:bool -> t -> string -> string
(** One protocol round: parse a request line, run it, render the response
    line.  Malformed requests become structured [Rejected]/["request"]
    responses rather than exceptions. *)

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
  shared_bounds : int;  (** warm lower-bound tables across all snapshots *)
  response_hits : int;  (** responses served from the response cache *)
  response_evictions : int;  (** response entries evicted or expired *)
  completed : int;
  rejected : int;
  failed : int;
  shed : int;  (** jobs answered below full service (rungs + quote-only) *)
}

val stats : t -> stats
