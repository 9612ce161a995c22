(** PathFinder: negotiation-based congestion routing (McMurchie & Ebeling,
    the paper's reference [3] and the router inside QUALE).

    Routes a set of simultaneous nets (source/destination node pairs) by
    iterated rip-up-and-reroute: every iteration routes each net with a
    lower-bound-guided A* under a cost that multiplies a {e present
    congestion} penalty (how overused the resource is right now, weighted
    harder each iteration) and adds a {e history} term (how often the
    resource has ever been overused).  Nets gradually negotiate away from
    contested channels until no resource exceeds its capacity.

    Occupancy, the resource->nets reverse index and the overused set are
    maintained incrementally across rip-ups — never rebuilt — so the
    convergence check is O(1), and each iteration after the first rips up
    and re-routes only the {e dirty} nets (those whose current route crosses
    an overused resource).  Clean nets keep their routes.  [doc/router.md]
    walks through the loop and the admissibility argument.

    QSPR's own engine routes incrementally in event order instead; this
    module exists as the faithful baseline substrate, and the bench harness
    compares the two styles on simultaneous route waves. *)

type net = { net_id : int; src : Fabric.Graph.node; dst : Fabric.Graph.node }

type outcome = {
  routes : (int * Path.t) list;  (** net id -> final route, in input order *)
  iterations : int;  (** negotiation rounds used *)
  overused : int;  (** resources still over capacity (0 = success) *)
  searches : int;  (** single-net shortest-path searches actually run *)
  seeded : int;  (** routes served verbatim from the cross-call cache *)
}

type error =
  | No_route of { net_id : int; src : Fabric.Graph.node; dst : Fabric.Graph.node; iteration : int }
      (** A net's endpoints are not connected at all — carries the net, its
          endpoint nodes, and the negotiation round in which the dead end was
          discovered, so callers can name the offending traps. *)
  | Bad_parameters of string  (** Invalid arguments (non-positive budget, negative costs). *)

val string_of_error : error -> string
(** Human-readable rendering of a routing failure. *)

val route_all :
  Fabric.Graph.t ->
  ?max_iterations:int ->
  ?present_factor:float ->
  ?history_increment:float ->
  ?turn_cost:float ->
  ?cache:Route_cache.t ->
  ?cancel:(unit -> unit) ->
  capacity:(Resource.t -> int) ->
  net list ->
  (outcome, error) result
(** Defaults: 30 iterations, present factor 0.5 (scaled by the iteration
    number), history increment 1.0, turn cost 10.0 move units.  [cache],
    when given, carries lower-bound tables and congestion-free routes across
    calls (it is rebound to this graph, dropping entries from any other
    fabric); without one a private per-call cache still shares tables
    between nets.  [Error] when some net
    has no route at all (disconnected endpoints) or arguments are invalid.
    [overused > 0] in the result means negotiation did not converge within
    the budget — the caller decides whether to accept the shared routes
    (the engine's busy queue would instead serialize).  [cancel] is a
    cooperative cancellation checkpoint polled once per negotiation round;
    it signals by raising (see [Simulator.Engine.run]).
    @raise Invalid_argument if occupancy bookkeeping ever goes negative
    (a double rip-up — an internal invariant, not a caller error). *)

val max_overuse : Fabric.Graph.t -> capacity:(Resource.t -> int) -> (int * Path.t) list -> int
(** Worst resource overuse of a set of routes — 0 iff every channel and
    junction is within capacity.  Exposed for tests and diagnostics. *)
