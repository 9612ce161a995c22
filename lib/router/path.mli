(** Typed routes: a packed flat-array edge sequence with cost, timing and
    resource accounting.

    A path's wall-clock duration is [moves * t_move + turns * t_turn]; its
    resource footprint is the set of channel segments and junctions it
    crosses, each with the offset (from departure) at which the qubit leaves
    it — the simulator turns those offsets into channel-exit events.

    Internally a path is two int arrays (packed steps + resource
    footprint, layout in [doc/memory.md]) computed once at construction and
    immutable afterwards: consumers on the engine's hot path iterate them
    index-wise without allocating ([num_resources]/[resource],
    [resource_exits_into], [step_*]); only {!cells}, for rendering, builds
    a list. *)

type t

val of_result : src:Fabric.Graph.node -> dst:Fabric.Graph.node -> Dijkstra.result -> t

val of_edges :
  src:Fabric.Graph.node -> dst:Fabric.Graph.node -> cost:float -> Fabric.Graph.edge list -> t
(** Pack an explicit edge list (tests, tools).
    @raise Invalid_argument when a node id exceeds the 24-bit packed range. *)

val of_workspace :
  Workspace.t -> Fabric.Graph.t -> src:Fabric.Graph.node -> dst:Fabric.Graph.node -> t option
(** The path recorded by the last [Dijkstra.run_into] on the workspace,
    packed straight from the predecessor chain — the flat equivalent of
    [Dijkstra.path_to] (same edges, same cost), without the intermediate
    edge list.  [None] when [dst] was not reached. *)

val empty : Fabric.Graph.node -> t
(** Zero-length path (operand already at the target trap). *)

val is_empty : t -> bool

val src : t -> Fabric.Graph.node
val dst : t -> Fabric.Graph.node
val cost : t -> float

val equal : t -> t -> bool
(** Structural: same endpoints, cost and packed steps. *)

val moves : t -> int
(** Cell steps: channel, junction and tap edges.  O(1). *)

val turns : t -> int
(** O(1). *)

val duration : Timing.t -> t -> float

(** {2 Flat step accessors}

    The packed edge sequence; [i] ranges over [0 .. step_count - 1].
    None of these allocate except {!step_kind}. *)

val step_count : t -> int
val step_dst : t -> int -> Fabric.Graph.node
val step_is_turn : t -> int -> bool
val step_kind : t -> int -> Fabric.Graph.edge_kind

(** {2 Resource footprint} *)

val num_resources : t -> int
(** Distinct resources crossed.  O(1). *)

val resource : t -> int -> Fabric.Component.resource
(** [resource t i] is the [i]-th distinct resource in first-crossing order.
    Allocation-free. *)

val iter_resources : (Fabric.Component.resource -> unit) -> t -> unit

val resource_exits_into : Timing.t -> t -> float array -> unit
(** Fill [out.(i)] with the time offset (from path departure) at which the
    qubit has fully left [resource t i] — the completion of the first edge
    that moves the qubit into a different resource or into the destination
    trap (turns keep the qubit inside its junction).  A revisited resource
    keeps its last exit.  Allocation-free; the buffer must hold at least
    {!num_resources} slots (only that prefix is written).
    @raise Invalid_argument when the buffer is too small. *)

val cells : Fabric.Graph.t -> t -> Ion_util.Coord.t list
(** Visited cell coordinates in order (turn edges repeat the junction cell),
    for rendering. *)

val pp : Fabric.Graph.t -> Format.formatter -> t -> unit
