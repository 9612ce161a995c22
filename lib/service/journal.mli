(** Crash-only request journal for [qspr serve --batch --journal].

    Append-only, line-delimited: one record per finalized response, in
    input order, flushed before the next response is computed.  Restarting
    an interrupted batch replays the journaled prefix verbatim (byte
    identity is free — the stored line {e is} the emitted line) and
    resumes mapping at the first unjournaled request, with the degradation
    ladder's slot counter reconstructed from the replayed verdicts so the
    resumed run sheds exactly as the uninterrupted run would have.

    Record grammar, one per line:
    {v qspr-journal/1 <16-hex request key> <verbatim response line> v}

    There is no recovery protocol beyond reading the file: a torn tail
    (the process died mid-append) fails to decode and is dropped, together
    with anything after it. *)

val key : string -> int64
(** FNV-1a 64 digest of a string.  Of a request's canonical line it is the
    journal's join key between a batch input and its recorded response;
    the scheduler keys its response cache and per-fabric registry with it
    too. *)

type entry = {
  key : int64;  (** digest of the request line this record answers *)
  response_line : string;  (** the emitted response, byte-for-byte *)
  response : Protocol.response;  (** its decoding, for exit codes and slots *)
}

val replay : string -> entry list
(** Decode an existing journal in append order.  Missing file means an
    empty journal; decoding stops at the first torn or corrupt record. *)

val consumed_slot : Protocol.response -> bool
(** Whether this response consumed a degradation-ladder slot when first
    computed: every job that ran ([Completed]/[Failed]) plus shed and
    queue-full rejections; pre-ladder refusals (request, lint, deadline,
    budget, admission, quote) did not. *)

type t
(** An open journal, in append mode. *)

val open_append : string -> t
(** Open (creating if absent) for appending. *)

val append : t -> key:int64 -> response_line:string -> unit
(** Durably record one response: write the record and flush. *)

val close : t -> unit
