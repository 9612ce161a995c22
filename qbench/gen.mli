(** Request generation for the benchmark's three workloads.

    Every input is a pure function of the workload and its seed: the same
    seed yields byte-identical request lines, and each request carries the
    status (and refusal stage) the service must answer it with. *)

type workload = Table1_mvfb | Serve_ingress | Portfolio_anneal

val all : workload list
val name : workload -> string
val of_name : string -> workload option

val why : workload -> string
(** One line: what the workload stresses. *)

type kind =
  | Warmup  (** one cheap request per fabric, answered during set-up *)
  | Builtin  (** a Table-1 circuit by name *)
  | Random  (** a distinct inline-QASM random Clifford program *)
  | Repeat  (** a byte-identical repeat of an earlier request in the pass *)
  | Lint_bad  (** a severity-2 program the lint tier must refuse *)
  | Quote_bad  (** a request whose quote exceeds its [max_quote_us = 1] *)

type request = {
  line : string;  (** the qspr-job request line, as sent *)
  kind : kind;
  expect_status : string;  (** ["ok"] or ["rejected"] *)
  expect_stage : string option;  (** the refusal stage when rejected *)
  repeat_of : int option;  (** index in [requests] of the request repeated *)
}

type pass = {
  warmups : request array;  (** set-up requests, one per fabric *)
  requests : request array;  (** the measured jobs of one pass, in order *)
  fabrics : int;  (** distinct fabrics the pass touches *)
}

val sa_moves : workload -> int
(** Delta-annealing moves per stream in the service config. *)

val make : workload -> seed:int -> pass
(** The inputs of one pass.  Every pass of a run replays the same inputs
    against a fresh service, so quality metrics do not depend on how many
    passes fit in the measured time. *)

val digest : pass -> string
(** Hex digest of every request line, warm-ups first — a fingerprint for
    the determinism check and the result's context record. *)
