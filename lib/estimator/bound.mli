(** Certified, admissible lower bounds on mapped circuit latency — the
    static half of the optimality-gap auditor.

    Every bound here is {e admissible}: it never exceeds the latency of any
    legal mapped execution of the program on the fabric, for any router,
    scheduler or placement refinement.  A mapping whose achieved latency
    equals a bound is therefore provably optimal; the ratio between the two
    is a certified optimality gap.  The catalog (admissibility arguments in
    [doc/analysis.md]):

    - {b critical-path} — the QIDG heaviest path under the technology gate
      delays ({!Qasm.Dag.critical_path}), i.e. the paper's ideal baseline.
      Dependencies must be respected by any schedule.
    - {b serialization} — the busiest single ion: an ion can be in only one
      trap, so all gates touching one qubit execute serially even when the
      QIDG leaves them unordered (shared-control gates commute logically
      but still contend for the shared ion).
    - {b capacity} — two-qubit gate work divided by the number of gates the
      fabric can execute concurrently: each two-qubit gate occupies a whole
      trap with two ions for [t_gate2], and at most
      [min num_traps (num_qubits / 2)] such gates can overlap.
    - {b placement} — a placement-aware release-time propagation: a
      two-qubit gate cannot start before both operands have (serially)
      performed their ancestor gate work {e and} travelled from their
      initial traps to some common trap, where travel is bounded below by
      the turn-aware shortest-path {!Distance} tables.  Releases are
      propagated through the QIDG, so this bound dominates critical-path.

    The {!kind} vocabulary also names the exact branch-and-bound optimum
    ([Exact]) produced by [Analysis.Bound] so every surface (certificates,
    service responses, bench rows) shares one encoding. *)

type kind = Critical_path | Serialization | Capacity | Placement | Exact

val kind_to_string : kind -> string
(** ["critical-path"], ["serialization"], ["capacity"], ["placement"],
    ["exact"] — the wire encoding used by qspr-certificate/2 and
    qspr-result/2. *)

type t = {
  critical_path_us : float;
  serialization_us : float;
  capacity_us : float;
  placement_us : float option;  (** [None] without a placement + tables *)
  lower_bound_us : float;  (** the max of the bounds above *)
  kind : kind;  (** which bound attains [lower_bound_us] (first in catalog order on ties) *)
}

val compute :
  ?placement:int array ->
  ?distance:Distance.t ->
  timing:Router.Timing.t ->
  num_traps:int ->
  Qasm.Dag.t ->
  t
(** Computes the full catalog.  The placement bound needs both [placement]
    ([placement.(q)] = qubit [q]'s initial trap) and [distance] tables built
    at this timing's turn cost; it is omitted otherwise.  A pure function of
    its arguments — bit-identical across jobs widths and call sites.
    @raise Invalid_argument when [placement] is shorter than the program's
    qubit count or names a trap outside the tables. *)

val gap : latency:float -> bound:float -> float option
(** The optimality gap [(latency - bound) / bound] of a latency over its
    lower bound; [None] when [bound] is not positive. *)

type infeasibility = {
  inf_qubits : int;  (** qubits the program declares *)
  inf_traps : int;  (** traps the fabric provides *)
  inf_required : int;  (** traps needed for the violated rule *)
  inf_hard : bool;
      (** [true]: the capacity bound itself is infinite — fewer than
          [ceil (qubits / 2)] traps, so no legal two-ions-per-trap placement
          exists at all.  [false]: the pipeline's load rule (one ion per
          trap at t=0) cannot be satisfied, so every placer and retry is
          doomed even though a denser packing might exist in principle. *)
}

val infeasibility : num_traps:int -> Qasm.Dag.t -> infeasibility option
(** Static mappability check, used by [qspr audit] and [Fault.campaign] to
    refuse impossible instances before burning placement retries. *)

val infeasibility_message : infeasibility -> string
