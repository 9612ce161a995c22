(** The one scanner of both QASM dialects.

    The whole source is scanned before any parsing, so the first lexical
    error anywhere wins over later grammar errors.  Every token records its
    1-based line and start column.  Blanks are skipped, and [#] and [//]
    start comments that run to the end of the line.

    The dialects differ in a few character classes: the paper's identifiers
    may contain [-], [\[] and [\]] (as in [C-X]) and [,] is its only
    punctuation; OpenQASM identifiers may contain [.], numbers may contain
    [.] (as in [2.0]), and it adds strings and [; \[ \] { } ->]. *)

type dialect =
  | Paper  (** the paper's line-per-instruction dialect (Figure 3) *)
  | Openqasm  (** the OpenQASM 2.0 subset *)

type token =
  | Ident of string
  | Int of int
  | Real of string  (** a number with a [.], or a digit run too long for [int] *)
  | Str of string
  | Comma
  | Semi
  | Lbracket
  | Rbracket
  | Lbrace
  | Rbrace
  | Arrow

type t = { token : token; line : int; col : int }

type error = { line : int; col : int; message : string }
(** A lexical error at a 1-based source position. *)

val error_to_string : error -> string
(** ["line L:C: message"]. *)

val detect : string -> dialect
(** [Openqasm] when the first word after blanks and comments is [OPENQASM],
    [include], [qreg], [creg] or [gate] (in any case); [Paper] otherwise. *)

val tokenize : dialect -> string -> (t list, error) result
(** Never raises.  Errors carry the offending position and character. *)
