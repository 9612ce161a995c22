(** The QSPR mapper: scheduling, placement and routing of a QASM program
    onto an ion-trap fabric (the paper's core contribution).

    Typical use:
    {[
      let ctx = Mapper.create ~fabric (Qasm.Parser.parse_file "circuit.qasm") in
      let sol = Mapper.map Mapper.Mvfb ctx in
      print_float sol.latency
    ]}

    Every search parameter ([m], [sa_moves], [jobs], [prescreen_k],
    [rng_seed], [budget]) comes from the context's {!Config.t}; use
    {!with_search} to run with other values on an existing context. *)

type t
(** A prepared mapping context: fabric graph, QIDG, UIDG (when the program
    is unitary), and the QSPR scheduling priorities. *)

val create :
  fabric:Fabric.Layout.t ->
  ?config:Config.t ->
  ?prebuilt:Fabric.Component.t * Fabric.Graph.t ->
  ?distance:Estimator.Distance.t ->
  ?route_cache:Router.Route_cache.t ->
  Qasm.Program.t ->
  (t, string) result
(** Builds the routing graph and dependency graphs.  Fails on fabrics with
    fewer traps than qubits, on config errors, or on unroutable fabrics.

    The optional sharing hooks exist for the service's batch path, where
    many contexts target one fabric: [prebuilt] supplies an
    already-extracted component and its graph (skipping re-extraction and,
    critically, giving every context the same physical graph so warm route
    tables key correctly); [distance] supplies prebuilt estimator distance
    tables; [route_cache] overrides the domain-local cache with an explicit
    per-context one — the caller promises the context then runs on a single
    domain (a config with [jobs] 1), in exchange for exact per-context
    hit/miss counters.  Every engine run goes through a route cache: this
    one when given, else the evaluating domain's. *)

val graph : t -> Fabric.Graph.t
val component : t -> Fabric.Component.t
val program : t -> Qasm.Program.t
val dag : t -> Qasm.Dag.t
val config : t -> Config.t

val ideal_latency : t -> float
(** The Section V.A baseline: QIDG critical path, no routing or congestion. *)

(** Why a mapping attempt failed — {!map} returns these instead of
    strings, so callers (the retry cascade, fault campaigns, the CLI) can
    react to the failure class. *)
type error =
  | Unroutable of { net_id : int; src_trap : int; dst_trap : int; iterations : int }
      (** a routing net's endpoint traps are not connected (Pathfinder-style
          simultaneous routing; carries the negotiation round) *)
  | Deadlock of { stuck : int }
      (** the engine's event queue drained with instructions outstanding —
          operands unroutable even on an idle fabric *)
  | Livelock of { events : int; budget : int }
      (** the engine exceeded its event budget without completing *)
  | Infeasible_placement of string
      (** the (possibly degraded) fabric cannot hold the circuit at all *)
  | Budget_exhausted of { attempts : int; last : error }
      (** the retry cascade ran out of attempts; [last] is the final failure *)
  | Deadline_exceeded of { budget_ms : float }
      (** the request's end-to-end deadline ({!Config.budget.deadline})
          expired; the search was aborted at the next cooperative
          checkpoint — engine event batch, Pathfinder negotiation round or
          annealer move chunk — instead of running hot *)
  | Invalid of string  (** malformed arguments or non-unitary backward request *)

val error_to_string : error -> string
(** Human-readable rendering of a mapping failure. *)

val of_engine_error : Simulator.Engine.error -> error
(** Lift an engine failure into the mapper's error type. *)

type attempt = {
  stage : string;  (** cascade stage label: ["mvfb"], ["mc"], ["sa"], ... *)
  seed : int;  (** rng seed the stage ran under *)
  outcome : (float, error) result;  (** winning latency, or why it failed *)
}

type solution = {
  latency : float;  (** execution latency, us *)
  trace : Simulator.Trace.t;  (** forward-executable micro-command trace *)
  initial_placement : int array;  (** qubit -> trap, before execution *)
  final_placement : int array;  (** qubit -> trap, after execution *)
  direction : Placer.Mvfb.direction;  (** which MVFB pass won (Forward for non-MVFB flows) *)
  placement_runs : int;  (** total schedule-and-route evaluations *)
  run_latencies : float list;  (** latency of every placement run, in order *)
  engine_evals : int;
      (** engine evaluations actually performed — less than [placement_runs]
          when duplicates were deduplicated or candidates pre-screened out *)
  cpu_time_s : float;
  attempts : attempt list;
      (** full audit of the search attempts that produced this solution, in
          order; single-stage searches record exactly one entry *)
  degraded : bool;
      (** the solution is best-so-far rather than the full search's best: a
          budget truncated the search, or earlier cascade stages failed *)
  lower_bound_us : float;
      (** certified admissible latency lower bound for this program, fabric
          and initial placement ({!Estimator.Bound}): no legal execution can
          beat it, so [latency /. lower_bound_us - 1.] is a certified
          optimality gap *)
  bound_kind : Estimator.Bound.kind;  (** which bound attains [lower_bound_us] *)
}

val run_forward : t -> int array -> (Simulator.Engine.result, Simulator.Engine.error) result
(** One forward engine run (QIDG, schedule S, QSPR policy) from a given
    placement — the building block of all placers. *)

val run_backward : t -> int array -> (Simulator.Engine.result, Simulator.Engine.error) result
(** One backward run: UIDG under the reversed schedule S*.  Fails for
    non-unitary programs. *)

val run_with :
  t ->
  policy:Simulator.Engine.policy ->
  priorities:float array ->
  placement:int array ->
  (Simulator.Engine.result, Simulator.Engine.error) result
(** Escape hatch for custom policies (used by the [Quale] strategy and the
    priority and ablation studies). *)

type strategy =
  | Mvfb
      (** the full QSPR flow: MVFB placement over [m] seeds, best of all
          forward/backward runs; backward winners are reported as reversed
          traces (Section IV.A) *)
  | Monte_carlo  (** best of [m] random center placements *)
  | Annealing
      (** simulated annealing ({!Placer.Annealing.search}) over [m]
          evaluations, seeded from [rng_seed]; the anneal itself is
          sequential, and [prescreen_k] draws that many starts and anneals
          from the best-estimated one *)
  | Portfolio
      (** a race ({!Placer.Portfolio}) of the [Mvfb], [Monte_carlo] and
          [Annealing] searches, each sequential and without pre-screening,
          and two delta-annealing streams ({!Placer.Annealing.search_delta},
          [sa_moves] proposals each, routing only improved incumbents).  The
          winner is the lowest [(latency, member order)]; every member shows
          in [attempts] as ["portfolio:<name>"] and the result is [Error]
          only when every member fails (the first failure) *)
  | Center  (** one deterministic center placement *)
  | Quale
      (** QUALE's mapping policy, the paper's comparator: center placement
          independent of the QIDG, ALAP priorities ({!quale_priorities}),
          turn-blind routing, no ion multiplexing (channel capacity 1) and
          the destination operand pinned.  Fabric, timing and event
          simulation are shared with QSPR, so latency differences measure
          the policy gap of Table 2 *)
  | Robust
      (** the hardened pipeline: [Mvfb], [Mvfb] re-seeded, [Monte_carlo],
          [Annealing], then [Mvfb] with two extra per-issue trap candidates
          (stages ["mvfb"], ["mvfb+reseed"], ["mc"], ["sa"],
          ["mvfb+relaxed"], stage [i] under seed [rng_seed + i]), stopping
          at the first success.  The solution carries every attempt and is
          [degraded] when an earlier stage failed; when all five fail the
          result is [Budget_exhausted] with the last failure *)

val strategies : (string * strategy) list
(** The placer names the CLI, the service and the docs accept:
    [mvfb mc sa portfolio center quale robust]. *)

val map : strategy -> t -> (solution, error) result
(** Map the context's program with one strategy.  [jobs] fans the MVFB
    seeds, MC runs, pre-screening estimates or portfolio members out over
    that many domains; any job count returns a bit-identical solution.
    [prescreen_k] estimates every unique candidate placement with the
    {!estimate} model and routes only the [k] best-estimated.  The
    {!Config.budget} makes Monte-Carlo, annealing and the portfolio
    anytime: an evaluation cap truncates deterministically in run order, a
    wall-clock budget stops between evaluations, and either marks the
    solution [degraded]; an expired deadline returns [Deadline_exceeded].
    Single-strategy solutions record one attempt, named as in
    {!strategies}. *)

val with_search : (Config.t -> Config.t) -> t -> t
(** [with_search f ctx] is [ctx] with the search parameters of [f config]
    (seed, [m], [jobs], pre-screening, budgets, engine policies), sharing
    the fabric, graphs and estimator.
    @raise Invalid_argument when [f] changes [timing] (the priorities and
    distance tables are built from it) or the new config fails
    {!Config.validate}. *)

val map_mvfb : ?jobs:int -> t -> (solution, error) result
val map_center : t -> (solution, error) result
val map_portfolio : ?jobs:int -> t -> (solution, error) result
(** [map Mvfb], [map Center] and [map Portfolio], with [jobs] overriding the
    config's; kept only for the benchmark harness until it calls {!map}. *)

val estimate : t -> int array -> float
(** LEQA-style latency estimate ({!Estimator.Model}) of an initial
    placement: no routing, no engine — microseconds, comparable to (and
    correlating with) {!run_forward} latencies.  Builds the distance model
    on first use; subsequent calls are allocation-free. *)

val estimator_model : t -> Estimator.Model.t
(** The underlying estimator (distance tables + DAG census), built lazily
    on first use and cached on the context. *)

val certified_bound : t -> initial_placement:int array -> Estimator.Bound.t
(** The full admissible lower-bound catalog ({!Estimator.Bound.compute})
    for an initial placement on this context — the values every solution
    carries in [lower_bound_us]/[bound_kind].  Pure in (context,
    placement); forces the estimator model for its distance tables. *)

val qspr_priorities : t -> float array
(** The Section III priorities driving the forward schedule. *)

val quale_priorities : t -> float array
(** QUALE's ALAP priorities, used by the [Quale] strategy. *)
