(** QASM text output in either dialect, round-trippable through {!Parser.parse}. *)

val instr_to_string : Program.t -> Instr.t -> string
(** One instruction with source-level qubit names, e.g. ["C-X q3,q2"]. *)

val to_string : Program.t -> string
(** Whole program, one instruction per line, with a comment header naming the
    program. *)

val pp : Format.formatter -> Program.t -> unit

val listing : Program.t -> string
(** Numbered listing in the style of the paper's Figure 3. *)

val to_openqasm : Program.t -> string
(** Render a program as OpenQASM 2.0 (one qreg named [q], a classical
    register added when measurements are present). *)
