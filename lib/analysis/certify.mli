(** Machine-checkable trace certificates (pass ["certify"]).

    A mapper's output is a micro-command trace and a claimed latency.  This
    module replays that trace against the fabric, the timing model and the
    program's dependency graph, {e sharing no code with the engine that
    produced it} — an independent re-implementation of the execution
    semantics, so an engine bug cannot certify its own output.  Checked:

    - {b continuity}: every move starts where the replay says the ion is —
      no teleports; moves are unit steps between walkable cells;
    - {b turn legality}: an axis change between consecutive moves happens at
      a junction with a turn command in between (trap tap hops exempt);
      turns occur at junctions only and cost [t_turn];
    - {b timing}: each command's duration matches the technology model, and
      no command starts while its qubit is still busy (moving, turning, or
      held inside an executing gate);
    - {b capacity}: per-segment and per-junction simultaneous occupancy
      never exceeds the policy's limits (half-open intervals: an exit at
      time [t] frees the slot for an entry at [t]);
    - {b gates}: every DAG gate executes exactly once, paired start/end at
      one trap, operands present at that trap, correct operand set and
      duration, and no gate starts before all its QIDG dependencies have
      finished — dependency order;
    - {b accounting}: the claimed latency equals the replayed makespan, and
      the final placement (when given) matches the replayed ion positions.

    A successful replay yields a certificate with a digest of the canonical
    trace rendering — two runs that certify to the same digest executed the
    same physical schedule. *)

type certificate = {
  valid : bool;  (** no [Error]-severity findings *)
  claimed_latency : float;
  replayed_makespan : float;
  commands : int;
  moves : int;
  turns : int;
  gates : int;  (** completed gate executions (paired start/end) *)
  digest : int64;  (** FNV-1a 64 over the canonical trace rendering *)
  lower_bound : float option;  (** certified admissible latency lower bound, when audited *)
  bound_kind : Estimator.Bound.kind option;  (** which bound attains [lower_bound] *)
  findings : Finding.t list;
}

val optimality_gap : certificate -> float option
(** [(claimed_latency - lower_bound) / lower_bound] — the certified
    optimality gap as a fraction (0 means provably optimal); [None] when no
    bound was attached or the bound is zero. *)

val check :
  component:Fabric.Component.t ->
  timing:Router.Timing.t ->
  channel_capacity:int ->
  junction_capacity:int ->
  dag:Qasm.Dag.t ->
  initial_placement:int array ->
  ?final_placement:int array ->
  ?faulted:Ion_util.Coord.t list ->
  ?lower_bound:float * Estimator.Bound.kind ->
  claimed_latency:float ->
  Simulator.Trace.t ->
  certificate
(** Replays the trace against the fabric [component] (callers that hold
    only a layout extract it first; the service and {!of_solution} pass the
    mapper's prebuilt one).

    Findings come out in a fixed order: initial-placement errors, then the
    replay's errors in time order (command by command), then gates that
    start but never end by instruction id, missing gates, dependency
    errors by instruction id, [capacity] errors by resource id (segments in
    component order, then junctions), and the accounting and bound checks.
    They are capped at 40 errors (a forged trace can violate everything
    everywhere); past the cap a final [truncated] warning says how many
    were dropped.

    [lower_bound] attaches a certified admissible latency bound to the
    certificate.  A bound above the claimed latency is a [bound-violation]
    error — admissible bounds never exceed the latency of a legal
    execution, so a violation means a forged certificate or a broken
    bound.

    [faulted] lists cells withdrawn from service (see the fault-injection
    subsystem): any move, turn or gate touching one of them is a
    [faulted-resource] error.  Passing the {e pristine} component together
    with the fault set catches traces forged against the undegraded fabric
    — a certified trace never uses a faulted junction, channel cell or
    trap. *)

val of_solution : Qspr.Mapper.t -> Qspr.Mapper.solution -> certificate
(** Certifies a mapper solution against its own context, at the channel and
    junction capacities of the policy the solution records
    ([Qspr.Mapper.solution.policy]): capacity 1 for a [Quale] run. *)

val digest_trace : Simulator.Trace.t -> int64
(** The certificate digest alone: FNV-1a 64 over the canonical rendering,
    streamed one command at a time (doc/analysis.md gives the byte
    format). *)

val to_json : certificate -> Ion_util.Json.t
(** Schema ["qspr-certificate/2"]: /1 plus [lower_bound_us], [bound_kind]
    and [optimality_gap]. *)

val pp : Format.formatter -> certificate -> unit
