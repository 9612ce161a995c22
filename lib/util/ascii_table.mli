(** Plain-text table rendering for experiment reports: a GitHub markdown
    table, every column padded to its widest cell so the text reads as a
    table in a terminal too. *)

val render : header:string list -> rows:string list list -> string
(** A header line, a [|---|] rule and one line per row.  Rows shorter than
    the header are padded with empty cells; longer rows are truncated.
    @raise Invalid_argument if [header] is empty. *)
