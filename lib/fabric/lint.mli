(** Fabric linting: structural diagnostics for user-authored fabrics.

    ASCII fabrics are easy to mistype; beyond the hard errors
    {!Layout.parse} and {!Component.extract} reject, this pass finds the
    soft problems that make mapping fail or perform badly:

    - disconnected islands: traps that cannot reach each other over the
      turn-aware routing graph;
    - dead-end channels: segments with fewer than two junction endpoints
      (legal, but they only serve taps and waste fabric area otherwise);
    - starved regions: a fabric whose trap count cannot host the intended
      qubit count;
    - turn-free fabrics (no junctions): fine for linear machines, flagged so
      grid users notice a parse surprise.

    Findings are reported in the shared {!Analysis_finding.t} currency
    (pass ["fabric"]) so the CLI, the [analysis] library and CI render them
    uniformly; [Analysis.Fabric_check] absorbs this pass and extends it with
    whole-mapper context (bottleneck cut vertices, transit capacity). *)

val check : ?num_qubits:int -> Layout.t -> Analysis_finding.t list
(** All findings, errors first.  [num_qubits] enables the capacity check. *)

val is_clean : ?num_qubits:int -> Layout.t -> bool
(** No [Error]-severity findings. *)

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
    [dead-end] (warning).  [check] is these plus {!capacity_findings}. *)

val pp_finding : Format.formatter -> Analysis_finding.t -> unit
