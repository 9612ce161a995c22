(** The pass catalog and the lint driver behind [qspr lint].

    Each analysis pass registers a name and a one-line description; the
    driver runs every pass applicable to the inputs it was given and
    returns the merged, severity-sorted findings.  Exit-code policy is
    {!Finding.exit_code}: 2 on any error, 1 on any warning, 0 otherwise. *)

type pass = {
  name : string;
  description : string;
}

val passes : pass list
(** All registered passes, in run order: ["program"], ["fabric"],
    ["config"], plus the on-demand ["certify"], ["determinism"] and
    ["bound"] passes that need a mapping run to
    check. *)

val lint :
  ?program:(Qasm.Program.t, Qasm.Parser.error) result ->
  ?fabric:(Fabric.Layout.t, string) result ->
  ?config:Qspr.Config.t ->
  unit ->
  Finding.t list
(** Runs the static passes on whatever inputs are present.  Load failures
    ([Error] arguments) become [parse-error] findings instead of
    exceptions, so the CLI reports them uniformly.  When both program and
    fabric are given, the fabric pass sees the program's qubit count (the
    capacity checks need it); when a config is given, its channel capacity
    feeds the transit check. *)

val lint_static :
  ?program:(Qasm.Program.t, Qasm.Parser.error) result ->
  ?fabric:Fabric_check.static ->
  ?config:Qspr.Config.t ->
  unit ->
  Finding.t list
(** {!lint} with the fabric's static findings already computed
    ({!Fabric_check.static_of}): only the qubit-count merge runs, so a caller
    that keeps them per fabric lints a repeat fabric without extracting it.
    Equal to [lint ~fabric:(Ok layout)] for the layout they came from. *)

val render : Finding.t list -> string
(** Human report: one line per finding plus a summary tail
    (["N errors, M warnings, K hints"] or ["clean"]). *)
