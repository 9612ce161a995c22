(** JSON export of mapping results for downstream tooling.

    A {!Mapper.solution} serializes to a self-contained document: latency,
    placements, per-run search history, the full micro-command trace, and
    the noise-exposure summary. *)

val solution : ?include_trace:bool -> program:Qasm.Program.t -> Mapper.solution -> Ion_util.Json.t
(** [include_trace] defaults to true; disable for compact summaries of
    large circuits. *)

val solution_string : ?include_trace:bool -> program:Qasm.Program.t -> Mapper.solution -> string

val command : Router.Micro.command -> Ion_util.Json.t
(** One micro-command as a typed JSON object. *)
