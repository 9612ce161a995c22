(** Fabric linting primitives: the structural diagnostics of a
    user-authored fabric and the one trap-count predicate.

    ASCII fabrics are easy to mistype; beyond the hard errors
    {!Layout.parse} and {!Component.extract} reject, {!structural} finds
    the soft problems that make mapping fail or perform badly:

    - disconnected islands: traps that cannot reach each other over the
      turn-aware routing graph;
    - dead-end channels: segments with fewer than two junction endpoints
      (legal, but they only serve taps and waste fabric area otherwise);
    - turn-free fabrics (no junctions): fine for linear machines, flagged so
      grid users notice a parse surprise;

    and {!capacity_findings} the starved regions: a fabric whose trap count
    cannot host the intended qubit count.

    Findings are reported in the shared {!Analysis_finding.t} currency
    (pass ["fabric"]).  They are not a lint pass of their own: the one
    fabric lint is [Analysis.Fabric_check], which builds on these and
    adds whole-mapper context (bottleneck cut vertices, transit
    capacity); every surface ([qspr lint], [qspr map], [qspr fabric
    --lint], the service) reports through it. *)

type trap_load =
  | Roomy  (** at least two traps per qubit *)
  | Tight  (** one trap per qubit fits, two do not: [tight-capacity] *)
  | Starved
      (** fewer traps than qubits, but at least one trap per two qubits:
          the load rule (one ion per trap at t=0) cannot hold *)
  | Impossible  (** fewer than [ceil (qubits / 2)] traps: not even two ions per trap fit *)

val trap_load : traps:int -> qubits:int -> trap_load
(** The one trap-count predicate.  {!capacity_error}, {!capacity_findings},
    [Analysis.Fabric_check] and [Estimator.Bound.infeasibility] (and through
    it the fault campaign's pre-check) all classify a qubit count with it. *)

val capacity_error : num_qubits:int -> Component.t -> string option
(** The message of the trap-starvation error ([num_qubits] exceeding the
    trap count, i.e. {!Starved} or {!Impossible}), if it applies; the
    mapper front door ({!Mapper.create}) delegates here instead of
    duplicating the comparison. *)

val capacity_findings :
  num_qubits:int -> traps:int -> Analysis_finding.t option * Analysis_finding.t option
(** The qubit-count findings: a [trap-capacity] error, or a
    [tight-capacity] warning, or neither. *)

val structural : Component.t -> Graph.t -> Analysis_finding.t list
(** The layout-only findings of a well-formed fabric, in emission order:
    [no-traps] or [disconnected] (errors), [no-junctions] (hint), then
    [dead-end] (warning). *)
