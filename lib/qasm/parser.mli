(** The QASM front end: one parser for the paper's dialect and an OpenQASM
    2.0 subset.  The input decides the dialect ({!Lexer.detect}); both
    report through one located {!error} and resolve mnemonics with
    {!Gate.g1_of_name} and {!Gate.g2_of_name}.  Parsing never raises.

    Paper dialect (Figure 3), one instruction per line:
    {v
      program  ::= line*
      line     ::= "QUBIT" name ("," int)?        -- declaration
                 | mnemonic1 name                  -- one-qubit gate
                 | mnemonic2 name "," name         -- two-qubit gate
    v}
    Qubit names are introduced by [QUBIT] and must be declared before use.

    OpenQASM 2.0 subset, [;]-terminated statements:
    {v
      OPENQASM 2.0;                 // header (optional)
      include "qelib1.inc";         // accepted and ignored
      qreg q[5];                    // quantum registers, qubits start in |0>
      creg c[5];                    // classical registers (tracked for measure)
      h q[0];  cx q[0],q[1];        // any mnemonic Gate knows
      measure q[0] -> c[0];         // lowered to MeasZ (classical bit dropped)
      reset q[0];                   // lowered to PrepZ
      barrier q[0],q[1];            // accepted and ignored (the mapper
                                    // derives ordering from data dependence)
      gate bell a,b { h a; cx a,b; }   // non-parameterized macros, expanded
      bell q[0],q[1];                  // at the call site (nesting allowed
                                       // up to a fixed depth)
    v}
    Parameterized gates, conditionals and whole-register gate broadcast are
    rejected with a located error.  Qubits are named ["reg[i]"]. *)

type error = {
  file : string option;  (** source file, when parsing from disk *)
  line : int;  (** 1-based; 0 for positionless errors *)
  col : int;  (** 1-based start column of the offending token *)
  message : string;
}
(** A parse error located at [file:line:col]; lint findings carry it as
    [Finding.Source]. *)

val error_to_string : error -> string
(** ["file:line:col: message"] (or ["line L:C: message"] without a file;
    just the message when positionless). *)

val error_of_string : string -> error
(** A positionless error carrying a plain-string diagnostic (an unknown
    builtin circuit, say). *)

val parse_located : ?file:string -> ?name:string -> string -> (Program.t, error) result
(** Parse QASM source text of either dialect.  [name] labels the resulting
    program (defaults to ["qasm"]); [file] labels error positions. *)

val parse : ?name:string -> string -> (Program.t, string) result
(** {!parse_located} with errors rendered by {!error_to_string}. *)

val parse_file_located : string -> (Program.t, error) result
(** Reads the file and parses it; the program is named after the basename
    and errors carry the path.  An unreadable file is a positionless error
    naming the path. *)

val parse_file : string -> (Program.t, string) result
(** {!parse_file_located} with rendered errors. *)
