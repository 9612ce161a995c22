(** Reading whole files without exceptions. *)

val read : string -> (string, string) result
(** [read path] is the contents of [path], or an error message naming
    [path] when it cannot be opened or read. *)
