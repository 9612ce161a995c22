(** Fabric analysis (pass ["fabric"]): absorbs {!Fabric.Lint} and extends it
    with whole-mapper context.

    From {!Fabric.Lint.check} (structural): [malformed], [no-traps],
    [disconnected], [trap-capacity], [tight-capacity], [no-junctions],
    [dead-end].

    Added here:
    - [bottleneck] (warning): a junction that is an articulation point of
      the turn-aware routing graph with traps on both sides — every
      crossing ion serializes through its limited capacity, the congestion
      pathology of the paper's Figure 5;
    - [transit-capacity] (warning): the channel system can hold at most
      [channel_capacity x segments] ions in transit; programs wider than
      that serialize their transport no matter how good the placement. *)

val check : ?num_qubits:int -> ?channel_capacity:int -> Fabric.Layout.t -> Finding.t list
(** All findings, errors first.  [num_qubits] enables the capacity checks;
    [channel_capacity] defaults to the paper's QSPR policy (2). *)

val check_result :
  ?num_qubits:int ->
  ?channel_capacity:int ->
  (Fabric.Layout.t, string) result ->
  Finding.t list
(** Like {!check}; an [Error] (parse failure) becomes a single
    [parse-error] finding of [Error] severity. *)

val bottleneck_junctions : Fabric.Layout.t -> (Ion_util.Coord.t * int * int) list
(** The cut-vertex junctions: each with the trap counts of the two sides it
    separates (smaller side first).  Exposed for tests; empty on malformed
    or junction-free fabrics. *)
