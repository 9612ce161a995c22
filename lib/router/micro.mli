(** Quantum-controller micro-commands.

    The mapper's output is a timestamped trace of these commands — the
    "series of micro-commands issued by the quantum system controller,
    specifying the moves and turns of individual qubits and the gate level
    operations" of Section IV.A. *)

type command =
  | Move of {
      qubit : int;
      from_ : Ion_util.Coord.t;
      to_ : Ion_util.Coord.t;
      start : float;
      finish : float;
    }
  | Turn of { qubit : int; at : Ion_util.Coord.t; start : float; finish : float }
  | Gate_start of { instr_id : int; trap : Ion_util.Coord.t; qubits : int list; time : float }
  | Gate_end of { instr_id : int; trap : Ion_util.Coord.t; qubits : int list; time : float }

val time : command -> float
(** Timestamp used for ordering: [start] for movements, [time] for gates. *)

val qubits_of : command -> int list

val reverse_command : total:float -> command -> command
(** Time-mirrors a command around [total] (and swaps move endpoints,
    gate start/end): reversing a full trace of a backward MVFB run yields a
    forward-executable trace. *)

val pp : Format.formatter -> command -> unit

(** Trace arena: commands-in-flight as reusable flat columns.

    The engine appends every command here during a run; a full
    [Engine.run] materializes the final, time-sorted [command list] once at
    the end — replacing a cons + record per emission plus a whole-list sort
    with amortized array writes — and an [Engine.score] never does.  A
    mapped job scores every placement candidate and materializes once per
    job, for its winner.  The materialized list is sorted by start time,
    stable in emission order.  A builder is
    single-domain mutable state; {!Builder.domain_local} reuses one arena
    across all runs (and service jobs) on a domain. *)
module Builder : sig
  type t

  val create : unit -> t

  val domain_local : unit -> t
  (** This domain's shared builder (created on first use).  Callers must
      [reset] it before a run and must not share it across domains. *)

  val reset : t -> unit
  (** Forget all appended commands; keeps the column capacity. *)

  val length : t -> int

  val materialized : t -> int
  (** How many times {!to_commands} has run on this builder — what tests
      read to check that a mapped job materializes one trace. *)

  val add_move :
    t -> qubit:int -> from_:Ion_util.Coord.t -> to_:Ion_util.Coord.t -> start:float -> finish:float -> unit

  val add_turn : t -> qubit:int -> at:Ion_util.Coord.t -> start:float -> finish:float -> unit

  val add_gate_start :
    t -> instr_id:int -> trap:Ion_util.Coord.t -> q0:int -> q1:int -> time:float -> unit
  (** [q1 = -1] for one-qubit gates. *)

  val add_gate_end :
    t -> instr_id:int -> trap:Ion_util.Coord.t -> q0:int -> q1:int -> time:float -> unit

  val lower_path :
    t -> Fabric.Graph.t -> Timing.t -> qubit:int -> start:float -> Path.t -> float
  (** Lower a routed path departing at [start] into Move/Turn commands,
      appended in path order, and return the arrival time.
      Allocation-free. *)

  val to_commands : t -> command list
  (** Materialize all appended commands, stably sorted by {!time}. *)
end
