(** The shared diagnostic currency of the static-analysis subsystem.

    Every checker in the tree — the QASM program passes, the fabric lint,
    the config sanity pass, the trace certifier and
    the parallel-determinism detector — reports problems as values of one
    finding type, so the CLI, CI and tests can render, count and gate on
    them uniformly.  This module lives below every producer ({!Fabric.Lint},
    the [analysis] library) and is re-exported there as
    [Analysis.Finding].

    A finding carries the {e pass} that produced it, a {e severity}, a
    source {e location} (instruction index, qubit, fabric cell, config key
    or trace command), a human message and a structured JSON payload whose
    ["kind"] entry is a stable machine-readable identifier of the finding
    class (the JSON schema is documented in [doc/analysis.md]). *)

type severity = Error | Warning | Hint

type loc =
  | Instruction of int  (** program instruction index *)
  | Qubit of int  (** program qubit index *)
  | Cell of Ion_util.Coord.t  (** fabric cell *)
  | Key of string  (** configuration key *)
  | Command of int  (** trace command index *)
  | Source of { file : string option; line : int; col : int }
      (** source text position, 1-based; rendered [file:line:col] *)
  | Nowhere

type t = {
  pass : string;  (** producing pass, e.g. ["fabric"], ["certify"] *)
  severity : severity;
  loc : loc;
  message : string;
  json : Ion_util.Json.t;  (** structured payload; always an object with a ["kind"] entry *)
}

val make :
  pass:string ->
  kind:string ->
  ?loc:loc ->
  ?extra:(string * Ion_util.Json.t) list ->
  severity ->
  ('a, unit, string, t) format4 ->
  'a
(** [make ~pass ~kind sev fmt ...] builds a finding whose [json] payload is
    [{"kind": kind, ...extra}]. *)

val kind : t -> string option
(** The ["kind"] entry of the payload, when present. *)

val severity_string : severity -> string
(** ["error"], ["warning"] or ["hint"]. *)

val sev_rank : severity -> int
(** [Error] = 0, [Warning] = 1, [Hint] = 2 — for sorting, errors first. *)

val sort : t list -> t list
(** Stable sort by severity (errors first), then pass. *)

val is_clean : t list -> bool
(** No [Error]-severity findings. *)

val worst : t list -> severity option
(** Highest severity present, [None] on the empty list. *)

val exit_code : t list -> int
(** Severity-tiered process exit code: 2 if any error, 1 if any warning
    (but no error), 0 otherwise (hints do not fail a build). *)

val count : severity -> t list -> int

val loc_string : loc -> string option
(** Short rendering, e.g. ["instr#3"], ["(4,7)"]; [None] for [Nowhere]. *)

val pp : Format.formatter -> t -> unit
(** [error[fabric/disconnected] @ (3,4): message] *)

val to_json : t -> Ion_util.Json.t
(** One finding as a JSON object: pass, severity, kind, loc, message, data. *)

val report_json : t list -> Ion_util.Json.t
(** A full findings report, schema [qspr-findings/1]: severity counts plus
    the finding list. *)
