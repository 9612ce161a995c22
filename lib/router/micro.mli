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

    The engine appends every command here during a run and materializes the
    final, time-sorted [command list] exactly once at the end — replacing a
    cons + record per emission plus a whole-list sort with amortized array
    writes.  The materialized list is bit-identical to the former
    emission-list path (same values, same stable order).  A builder is
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

  val capacity : t -> int
  (** Current column capacity in commands (monotone under [reset]). *)

  val reserve : t -> int -> unit
  (** Grow the columns to hold at least that many commands, keeping any
      appended content — lets a fresh domain pre-size its arena to a known
      trace high-watermark instead of doubling up to it. *)

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
