(** All-pairs trap-to-trap distance tables over the turn-aware routing
    graph — the fabric half of the LEQA-style latency estimator.

    Built once per fabric graph: one Dijkstra sweep per trap port under the
    same move-unit metric the router uses (every channel/junction/tap step
    costs one move, a turn costs [turn_cost] moves), cached as flat arrays
    so a lookup in the per-placement estimation loop is one load and no
    allocation.  A meeting-trap table mirrors the engine's two-qubit trap
    selection: the meeting trap of operands at [a] and [b] is the trap
    minimizing the makespan [max (d a m) (d b m)] of moving both operands
    there (ties broken by total distance, then by trap id) — the estimator's
    stand-in for "nearest available trap to the median". *)

type t

val build : Fabric.Graph.t -> turn_cost:float -> t
(** One Dijkstra per trap, all on one fresh workspace, plus the pairwise
    meeting-trap scan; [turn_cost] is the turn-edge weight in move units
    (see {!Router.Timing.turn_cost_in_moves}).
    @raise Invalid_argument on a negative turn cost. *)

val num_traps : t -> int

val turn_cost : t -> float
(** The turn-edge weight the tables were built at — lets a holder check a
    prebuilt table set matches its timing before sharing it. *)

val tables : t -> float array * int array
(** The raw row-major [num_traps * num_traps] distance and meeting-trap
    tables behind {!between} and {!meet} — shared, not copied, and must be
    treated as frozen.  Exposed for the {!Delta} model's proposal loop,
    where the per-call indexing of the accessors is measurable. *)

val between : t -> int -> int -> float
(** [between t a b] — shortest travel distance from trap [a] to trap [b] in
    move units ([infinity] when unreachable, [0.] when [a = b]). *)

val meet : t -> int -> int -> int
(** The meeting trap for operands at [a] and [b]; [meet t a a = a]. *)

