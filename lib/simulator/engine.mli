(** Event-driven fabric simulator (paper Sections III-IV).

    Executes a QIDG on a fabric: issues ready instructions in priority order,
    selects a target trap for every two-qubit gate, routes operands with
    Dijkstra under live Eq. 2 congestion weights, commits channel/junction
    capacity for the duration of each crossing, parks unroutable instructions
    in the busy queue, and replays them when a qubit exits a channel or an
    instruction completes.  The result is the execution latency, the
    micro-command trace and the final placement — everything the MVFB placer
    and the experiment harness need.

    Two policy knobs reproduce the published tools:
    - {!qspr_policy}: turn-aware routing, both operands move toward the trap
      nearest the median of their positions, channel capacity 2 (ion
      multiplexing);
    - {!quale_policy}: turn-blind routing (turns still cost time when
      executed, but the router cannot see them — Figure 5's shortcoming),
      destination operand pinned, channel capacity 1. *)

type routing_style = Both_move | Dest_pinned

type policy = {
  turn_aware : bool;  (** charge turns in the routing metric *)
  routing : routing_style;
  channel_capacity : int;
  junction_capacity : int;
  trap_candidates : int;  (** nearest available traps tried per issue attempt *)
}

val qspr_policy : policy
val quale_policy : policy

type instr_stats = {
  ready_at : float;  (** dependencies satisfied *)
  issued_at : float;  (** routing committed; [issued_at - ready_at] is T_congestion *)
  completed_at : float;
  route_moves : int;
  route_turns : int;
}

type result = {
  latency : float;
  trace : Router.Micro.command list;  (** time-ordered *)
  final_placement : int array;  (** qubit -> trap id at completion *)
  stats : instr_stats array;
  total_congestion_wait : float;
  total_routing_time : float;
  route_searches : int;  (** single-net Dijkstra searches actually run *)
  route_cache_hits : int;  (** searches served verbatim from the route cache *)
}

type error =
  | Invalid of string  (** malformed arguments: placement/priority shape, bad budget factor *)
  | Deadlock of { stuck : int }
      (** the event queue drained with [stuck] instructions still outstanding —
          some operand pair cannot be routed even on an idle fabric
          (disconnected or faulted substrate) *)
  | Livelock of { events : int; budget : int }
      (** the engine emitted more than [budget] events without completing the
          program — runaway retry churn *)

val string_of_error : error -> string
(** Human-readable rendering of an engine failure. *)

val run :
  graph:Fabric.Graph.t ->
  timing:Router.Timing.t ->
  policy:policy ->
  dag:Qasm.Dag.t ->
  priorities:float array ->
  placement:int array ->
  ?max_events_factor:int ->
  ?route_cache:Router.Route_cache.t ->
  ?cancel:(unit -> unit) ->
  unit ->
  (result, error) Stdlib.result
(** [placement.(q)] is the initial trap of qubit [q]; traps hold at most two
    ions (MVFB backward runs start from final placements where gate pairs
    share traps).  Fails with a typed {!error} on invalid placements, graphs
    whose traps cannot reach each other (deadlock), or event-budget blowout
    (livelock).  [max_events_factor] (default 10_000) scales the livelock
    budget as [factor * (instructions + 1)] — exposed so tests can force the
    livelock branch cheaply.

    [route_cache], when given, memoizes the searches issued while nothing is
    in flight (see {!Router.Congestion.base_weights_active}) across runs and
    candidates on the same fabric; hits replay the uncached plain-Dijkstra
    result bit-for-bit, so the trace and latency are identical with or
    without a cache — only {!result.route_searches} shrinks.  The cache is
    single-domain state; pass each domain its own
    ({!Router.Route_cache.domain_local}).  Every [Mapper] run passes one;
    an uncached run is the reference the cache tests compare against.

    [cancel], when given, is a cooperative cancellation checkpoint polled
    once per event batch.  It returns unit on "keep going" and signals
    cancellation by raising (the mapper passes a closure raising
    [Ion_util.Clock.Expired] when the request deadline has passed); the
    exception propagates out of [run] uncaught, so arms it only around
    typed catch sites. *)
