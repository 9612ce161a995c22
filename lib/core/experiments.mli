(** Reproduction of every table and figure in the paper's evaluation
    (Section V), shared by the experiment driver, bench-smoke and the tests.

    Each study is a typed function (the tests pin its rows) and an entry in
    {!studies}, which turns the rows into {!section}s: tables that one
    markdown printer and one JSON encoder print, and preformatted pictures.
    All functions are deterministic (the root seed of [Config.default]);
    the defaults reproduce the paper's protocol (m = 25 and m = 100). *)

type placer_cell = { latency : float; cpu_ms : float; runs : int }

type table1_row = {
  circuit : string;
  mvfb_25 : placer_cell;
  mc_25 : placer_cell;
  mvfb_100 : placer_cell;
  mc_100 : placer_cell;
}

type table2_row = { circuit : string; baseline : float; quale : float; qspr : float }

val us : float -> string
(** Latency formatting: integral microsecond values print without decimals. *)

val improvement_pct : quale:float -> qspr:float -> float
(** Percentage improvement of QSPR over QUALE, as reported in Table 2's last
    column: [(quale - qspr) / quale * 100]. *)

val fabric : unit -> Fabric.Layout.t
(** The Figure 4 fabric used by every experiment. *)

val context : Qasm.Program.t -> Mapper.t
(** Mapper context on the standard fabric at [Config.default].
    @raise Failure when construction fails (fabric/program mismatch). *)

val table1 :
  ?m_small:int ->
  ?m_large:int ->
  ?circuits:(string * Qasm.Program.t) list ->
  unit ->
  table1_row list
(** Table 1: MVFB vs Monte-Carlo at two seed counts (defaults 25 and 100),
    with the MC run budget set to MVFB's total placement runs — the paper's
    equal-CPU protocol.  Circuits and searches run one at a time, so each
    CPU column is the time of that search alone. *)

val table2 : ?m:int -> ?circuits:(string * Qasm.Program.t) list -> unit -> table2_row list
(** Table 2: ideal baseline vs QUALE vs QSPR (MVFB, default m = 100). *)

val sensitivity : ?ms:int list -> ?circuit:string -> unit -> (int * float * int * float) list
(** Section IV.A sensitivity to m: for each m, (m, MVFB latency, MVFB runs,
    best-of-equal-runs MC latency).  Default circuit [[9,1,3]],
    ms = [1; 5; 10; 25; 50; 100]. *)

val congestion_maps : ?circuit:string -> unit -> string * string
(** Channel-utilization heatmaps of the QSPR and QUALE mappings of one
    circuit (default [[19,1,7]]) — the spatial view of why capacity-1
    routing hurts. *)

val scaling_study : ?cases:(int * int) list -> unit -> (int * int * float * float) list
(** Mapper scalability on random Clifford workloads: for each
    (qubits, gates) case, the mapped latency (us) and mapping CPU time (s)
    under MVFB m=3.  Defaults: (5,30), (10,60), (15,120), (20,200). *)

val placer_comparison : unit -> (string * float * int) list
(** All five placers at (approximately) equal evaluation budgets on
    [[9,1,3]]: (placer, latency us, schedule-and-route evaluations).  Center
    and connectivity are single-shot constructions; Monte-Carlo, simulated
    annealing and MVFB get the same evaluation count (MVFB's own run
    count).  The spread quantifies how much schedule-awareness buys. *)

val estimator_accuracy : unit -> (string * float * float * float) list
(** LEQA-style estimator vs the measured engine on each Table-1 circuit's
    center placement: (circuit, estimated us, measured us, relative error).  The
    mean of the last column is the headline accuracy number recorded in the
    benchmark JSON. *)

type prescreen_stats = {
  plain_latency : float;  (** best latency of exhaustive MC *)
  plain_evals : int;  (** engine evaluations of exhaustive MC *)
  prescreened_latency : float;  (** best latency with estimator pre-screening *)
  prescreened_evals : int;  (** engine evaluations with pre-screening *)
}

val prescreen_study : ?circuit:string -> unit -> prescreen_stats
(** Exhaustive Monte-Carlo vs estimator-pre-screened Monte-Carlo at the same
    candidate pool (default [[9,1,3]], runs = 25, k = 5): the pre-screened
    search should cut engine evaluations by about [runs/k] while staying
    within a few percent of the exhaustive best. *)

val fabric_study : ?circuit:string -> unit -> (string * float) list
(** Sensitivity of the mapped latency to fabric geometry and capacity —
    the design space the paper's Section II fixes by technology assumption:
    junction pitch {6, 8, 12}, one or two traps per channel, and channel
    capacity 1, 2 (the paper's value) and 4.  Default circuit [[9,1,3]]. *)

val optimality_study : unit -> (string * float) list
(** How close the heuristics get to ground truth on [[5,1,3]]: latency of
    the exhaustive optimum over the 6 nearest-center traps versus center
    placement, Monte-Carlo and MVFB, plus the worst placement for
    spread. *)

val noise_study : ?m:int -> ?circuits:(string * Qasm.Program.t) list -> unit -> (string * float * float) list
(** The paper's motivation made quantitative: estimated success probability
    of each circuit's QSPR mapping vs its QUALE mapping under the default
    ion-trap noise model — (circuit, p_success QSPR, p_success QUALE).
    Lower latency means less dephasing and fewer transport errors. *)

val empirical_noise :
  ?circuit:string -> ?trials:int -> unit -> (string * float * float * float) list
(** Monte-Carlo validation of the noise estimate on one circuit (default
    [[9,1,3]], 300 trials): for the QSPR and QUALE mappings,
    (label, latency us, analytic success, measured success). *)

val objective_study :
  ?circuit:string -> ?samples:int -> unit -> (string * float * float) list
(** Does optimizing latency also optimize error?  Over random center
    placements of one circuit, the latency-minimizing winner vs the
    estimated-error-minimizing winner: (objective, latency us, error
    probability).  Mostly aligned — the paper's premise — but turn-heavy
    routes can make the two winners differ. *)

val wave_study : ?m:int -> ?circuits:(string * Qasm.Program.t) list -> unit -> (string * float * float * int) list
(** Phase-synchronous (wave/PathFinder) mapping vs the event-driven QSPR
    engine: (circuit, wave us, qspr us, unresolved overuses).  The wave
    latencies land near the paper's published QUALE numbers — evidence that
    the original tool's batch routing style, not just its policies, drove
    its latency. *)

val basis_study : ?m:int -> ?circuits:(string * Qasm.Program.t) list -> unit -> (string * float * float) list
(** What the paper's native controlled-Pauli assumption is worth: QSPR
    latency of each circuit as written vs rewritten into the CX-only basis
    (extra H/S gates) — (circuit, native us, cx-basis us). *)

val eq1_breakdown : ?m:int -> unit -> (string * Simulator.Breakdown.totals * Simulator.Breakdown.totals) list
(** The paper's Eq. 1 decomposition per Table-1 circuit: total T_gate / T_routing /
    T_congestion of the QSPR mapping and of the QUALE mapping — quantifying
    the closing observation that routing and congestion dominate larger
    circuits. *)

val noise_sweep : ?trials:int -> unit -> (float * float * float) list
(** Measured failure-rate curves of [[9,1,3]] vs transport-noise scale: for
    each scale s in 0.5, 1, 2 and 4,
    (s, QSPR failure rate, QUALE failure rate) with move/turn error
    probabilities multiplied by s.  The gap between the curves is the
    mapping-quality dividend. *)

val priority_study : ?circuit:string -> unit -> (string * float) list
(** Section III ablation: mapped latency (center placement, QSPR engine)
    under each scheduling-priority policy — the paper's linear combination,
    QUALE's ALAP, QPOS's dependents count and the dependent-delay tweak of
    reference [5].  Default circuit [[9,1,3]]. *)

val ablation_study : unit -> (string * float) list
(** Design-choice ablation: mapped latency (center placement, QSPR
    priorities) with the full QSPR engine policy and with each of four
    choices disabled in turn — turn-blind routing, channel capacity 1,
    destination-pinned routing and a single trap candidate.  Rows are
    [full_qspr; turn_blind; capacity_1; dest_pinned; single_trap_candidate].
    Circuit [[9,1,3]]. *)

val gaps_study : ?m:int -> unit -> (string * float * float * Estimator.Bound.kind * float) list
(** Certified optimality gaps over the Table-1 suite on
    the 45x85 fabric: for each circuit, the MVFB latency at [m] seeds, the
    certified admissible lower bound the solution carries, the bound kind
    that attained it and the relative gap [(latency - bound) / bound]. *)

val fig23 : unit -> string
(** Figures 2/3: the [[5,1,3]] encoder as a numbered QASM listing. *)

val fig4 : unit -> string
(** Figure 4: ASCII rendering of the 45x85 fabric. *)

val fig5 : unit -> string
(** Figure 5: corner-to-corner routing on a small tile under the turn-aware
    and turn-blind graph models — path renderings plus move/turn counts. *)

(** {1 Tables and the study registry} *)

type cell = { text : string; value : Ion_util.Json.t }
(** What the markdown table prints, and the raw value the JSON carries: a
    percentage cell prints rounded, a repeated row label prints blank. *)

type column = { header : string; key : string }
(** The markdown header and the JSON key of one column. *)

type table = { columns : column list; rows : cell list list }
(** Every row has one cell per column. *)

type section =
  | Table of table
  | Text of { text : string; json : Ion_util.Json.t option }
      (** A preformatted picture (plot, figure, heatmap, report); [json] is
          its own document when it has one. *)

val markdown : section -> string
(** A table as a padded GitHub markdown table, a text as a fenced block. *)

val json : table -> Ion_util.Json.t
(** One object per row, keyed by the column keys. *)

val table1_section : m_small:int -> m_large:int -> table1_row list -> section
(** Table 1 as an MVFB row and an MC row per circuit; the MC row prints a
    blank circuit cell that its JSON keeps. The JSON keys keep the paper's
    m = 25 / m = 100 names at any [m_small] and [m_large]. *)

val table2_section : table2_row list -> section
(** Table 2 with the paper's QUALE and QSPR latencies beside the measured
    ones, and both improvements. *)

type study = { name : string; title : string; run : fast:bool -> section list }
(** [run ~fast:true] shrinks seed counts, trials and samples so the whole
    registry completes in seconds. *)

val m_small : fast:bool -> int
(** Table 1's smaller seed count: 25, or 3 under [--fast]. *)

val studies : study list
(** Every study of this module, in the driver's [all] order. *)
