(** Fault injection and degraded-fabric survivability campaigns.

    Real trap arrays lose resources: a junction's electrodes fail-stop, a
    channel develops a blockage, a trap site stops holding ions, a
    worn-out zone shuttles slower than specified.  This module models
    those faults on the ASCII fabric, produces a {e degraded} layout that
    flows through the unmodified mapper stack (component extraction,
    routing graph, placers, engine, estimator, certification), and runs
    Monte-Carlo survivability campaigns over sampled fault sets.

    Everything is deterministic: fault sets are pure functions of
    [(seed, index)] via {!Ion_util.Rng.derive}, and campaigns fan trials
    over {!Ion_util.Domain_pool}, so the same seed produces bit-identical
    reports at any job count. *)

(** One fault, naming a resource of the {e pristine} fabric's component
    (ids as in {!Fabric.Component}). *)
type t =
  | Dead_junction of int  (** fail-stop junction: its cell leaves the fabric *)
  | Blocked_channel of int  (** blocked segment: every cell of the run leaves *)
  | Disabled_trap of int  (** the trap site no longer holds ions *)
  | Slow of { op : op; factor : float }
      (** derated timing: the per-op delay is multiplied by [factor >= 1];
          structural layout is untouched (see {!degrade_timing}) *)

and op = Move | Turn | Gate1 | Gate2

type set = t list

val to_string : t -> string

val resource_kind : t -> string
(** ["junction"], ["channel"], ["trap"] or ["timing"] — histogram key. *)

val sample : seed:int -> index:int -> n:int -> Fabric.Component.t -> set
(** [sample ~seed ~index ~n comp] draws [n] distinct structural faults
    (junctions, segments, traps — never [Slow]) uniformly over the
    component's resources, without replacement, from the
    [Rng.derive seed ~index] stream.  A pure function of
    [(seed, index, n, comp)]; [n] is clamped to the resource count.
    @raise Invalid_argument on [n < 0]. *)

type applied = {
  layout : Fabric.Layout.t;  (** the degraded fabric, re-parsed and valid *)
  faulted_cells : Ion_util.Coord.t list;
      (** every cell withdrawn from service, cascades included — feed this
          to {!Analysis.Certify.check}'s [faulted] argument *)
  cascaded_traps : int;
      (** traps blanked because their only tap cell was faulted away *)
}

val apply : Fabric.Layout.t -> set -> (applied, string) result
(** Blanks the faulted resources' cells and cascades: a trap whose every
    adjacent walkable cell disappeared is blanked too (a trap with no tap
    is not a fabric).  The result round-trips through the ASCII parser, so
    it satisfies every invariant {!Fabric.Layout.parse} enforces.  [Slow]
    faults do not alter the layout.  Fails only on a malformed input
    layout. *)

val degrade_timing : Router.Timing.t -> set -> Router.Timing.t
(** Multiplies each [Slow] fault's per-op delay by its factor (factors
    compose multiplicatively; non-[Slow] faults are ignored).
    @raise Invalid_argument on a factor < 1. *)

(** {1 Survivability campaigns} *)

type outcome =
  | Mapped of { latency : float; degraded : bool; attempts : int }
      (** the retry cascade found a mapping on the degraded fabric *)
  | Infeasible of Analysis.Finding.t
      (** the degraded fabric provably cannot hold the circuit — the
          capacity lower bound ({!Estimator.Bound.infeasibility}) is
          infeasible — so the trial was refused with a typed finding
          {e before} any placement search or retry cascade ran *)
  | Unmappable of string
      (** the degraded fabric rejects the circuit outright for a reason the
          capacity pre-check cannot prove (disconnected component, lint
          failure at context creation) *)
  | Failed of { error : string; first_failing : string }
      (** every cascade stage failed; [first_failing] is the resource kind
          of the first fault in the trial's set — the histogram key *)

type trial = { index : int; faults : set; outcome : outcome }

type level = {
  fault_count : int;
  trials : trial list;  (** in trial order *)
  survived : int;
  infeasible : int;  (** trials refused by the capacity pre-check *)
  mean_latency : float option;  (** over survivors *)
  worst_latency : float option;
}

type report = {
  circuit : string;
  seed : int;
  trials_per_level : int;
  baseline_latency : float;  (** pristine-fabric latency of the same cascade *)
  levels : level list;  (** ascending fault count *)
  histogram : (string * int) list;
      (** first-failing-resource kinds over all non-surviving trials,
          sorted.  [Failed] trials count under their recorded
          [first_failing]; [Unmappable] and [Infeasible] trials (fabric
          rejected before any mapping attempt) under the resource kind of
          the trial's first sampled fault, so the histogram totals
          [Failed] + [Unmappable] + [Infeasible]. *)
}

val campaign :
  ?jobs:int ->
  ?config:Qspr.Config.t ->
  seed:int ->
  levels:int list ->
  trials:int ->
  fabric:Fabric.Layout.t ->
  Qasm.Program.t ->
  (report, string) result
(** [campaign ~seed ~levels ~trials ~fabric program] samples [trials]
    fault sets per entry of [levels] (each entry a fault count), degrades
    the fabric, and maps with the {!Qspr.Mapper.Robust} cascade on every
    surviving fabric, fanning trials over a {!Ion_util.Domain_pool} of [jobs]
    (default 1) domains.  Trial [i] of level [l] draws from
    [Rng.derive seed ~index:(l * trials + i)], so the report is
    bit-identical at any job count.  The per-trial search itself runs
    sequentially ([config]'s [jobs] is ignored) — parallelism is across
    trials.  Wall-clock budgets in [config] are ignored (they would break
    determinism); the evaluation budget is honoured.  Fails only if the pristine fabric
    itself rejects the program. *)

val to_json : report -> Ion_util.Json.t
(** Schema ["qspr-faults/2"]: per-level survival and infeasible counts and
    latency degradation versus the pristine baseline, plus the
    first-failing histogram. *)

val pp : Format.formatter -> report -> unit
(** Human-readable survivability table. *)
