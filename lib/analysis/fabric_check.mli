(** Fabric analysis (pass ["fabric"]): the one fabric lint.  [qspr lint],
    [qspr map]'s pre-search gate, [qspr fabric --lint] and the service all
    report through it.

    From {!Fabric.Lint.structural} and {!Fabric.Lint.capacity_findings}:
    [malformed], [no-traps], [disconnected], [trap-capacity],
    [tight-capacity], [no-junctions], [dead-end].

    Added here:
    - [bottleneck] (warning): a junction that is an articulation point of
      the turn-aware routing graph with traps on both sides — every
      crossing ion serializes through its limited capacity, the congestion
      pathology of the paper's Figure 5;
    - [transit-capacity] (warning): the channel system can hold at most
      [channel_capacity x segments] ions in transit; programs wider than
      that serialize their transport no matter how good the placement. *)

(** {1 Static findings and the qubit-count merge}

    The pass splits in two.  The {e static} part ({!static_of},
    {!static_result}) depends on the layout alone — [malformed] /
    [parse-error], [no-traps], [disconnected], [no-junctions], [dead-end]
    and [bottleneck] — and costs one {!Fabric.Component.extract} and one
    {!Fabric.Graph.build}; the service keeps it on its per-fabric
    registry entry.  {!merge} then adds the qubit-count findings
    ([trap-capacity], [tight-capacity], [transit-capacity]) in O(1).
    {!Finding.sort} is stable, so the order is part of the contract:

    {v [trap-capacity?] @ static errors
[transit-capacity?] @ static warnings @ [tight-capacity?]
static hints v} *)

type static
(** The static findings of one fabric, with its trap and segment counts
    when it is well formed (a parse or extraction failure gets no
    qubit-count findings). *)

val static_of : (Fabric.Component.t * Fabric.Graph.t, string) result -> static
(** The static findings of an extraction the caller already made
    ([Error] is the extraction's message, reported as [malformed]), so
    the graph it built can be reused. *)

val static_result : (Fabric.Layout.t, string) result -> static
(** Extracts and analyses a layout; an [Error] (parse failure) becomes a
    single [parse-error] finding of [Error] severity. *)

val merge : ?num_qubits:int -> ?channel_capacity:int -> static -> Finding.t list
(** All findings, errors first.  [num_qubits] enables the capacity checks;
    [channel_capacity] defaults to the paper's QSPR policy (2). *)

val check : ?num_qubits:int -> ?channel_capacity:int -> Fabric.Layout.t -> Finding.t list
(** [merge ?num_qubits ?channel_capacity (static_result (Ok lay))]. *)

val check_result :
  ?num_qubits:int ->
  ?channel_capacity:int ->
  (Fabric.Layout.t, string) result ->
  Finding.t list
(** [merge ?num_qubits ?channel_capacity (static_result r)]. *)

val bottleneck_junctions : Fabric.Layout.t -> (Ion_util.Coord.t * int * int) list
(** The cut-vertex junctions: each with the trap counts of the two sides it
    separates (smaller side first).  Exposed for tests; empty on malformed
    or junction-free fabrics. *)
