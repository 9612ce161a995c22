(** The traced run: every job of a pass re-executed through the layers'
    public functions, in the order the service calls them, with a span
    around each call.

    Each job yields a ["job"] root span holding the service path —
    decode, parse, fabric, lint, fabric build and distance tables on a
    fabric's first use, mapper context, quote, placement search,
    certification, response encoding — and, for mapped jobs, a ["probe"]
    root span holding measurement-only re-executions: one
    [Mapper.run_forward] of the winning placement, [Mapper.certified_bound]
    and, on portfolio jobs, one [Placer.Annealing.search_delta] stream.
    Probes run after the service path and never feed warm state back into
    it, so job roots and their children decompose the service's own work.

    Spans are kept in memory and written out by {!write}. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  job : int;  (** index of the job in the traced sequence *)
  name : string;
  start_s : float;
  stop_s : float;
  minor_words : float;
  promoted_words : float;
}

(** What a traced job answered, compared with the untraced response. *)
type answer = {
  status : string;
  stage : string option;
  latency_bits : int64 option;
  digest : int64 option;
}

(** Per-job counts read at the layer boundaries. *)
type counts = {
  parse_bytes : int;  (** inline QASM bytes parsed (0 for builtins) *)
  placement_runs : int;
  engine_evals : int;
  route_hits : int;  (** route-cache lookups served during the search *)
  route_searches : int;  (** base-weight searches run during the search *)
  bound_kind : string option;
  certify_commands : int;
  delta_moves : int;
  delta_accepted : int;
  delta_evals : int;  (** routed evaluations inside the delta probe *)
}

type job = { id : string; answer : answer; counts : counts; disagreements : string list }
(** [disagreements] lists probe results that contradict the service path
    (a certified bound or delta-SA stream that does not reproduce). *)

type t

val create : Qspr.Config.t -> t
(** A fresh traced pipeline with an empty fabric registry and response
    cache, configured like [Service.Scheduler.create ~config]. *)

val run : t -> string -> job
(** Trace one request line. *)

val spans : t -> span list
(** Every span recorded so far, in start order. *)

val jobs : t -> job list
(** Every traced job, in order. *)

val write : t -> string -> unit
(** Write jobs and spans as one JSON document. *)
