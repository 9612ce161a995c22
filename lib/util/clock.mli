(** Monotonic time and request deadlines.

    [Unix.gettimeofday] follows the system wall clock, which NTP and
    operators can step backwards or forwards at any moment — a wall-clock
    budget armed against it can expire instantly or never.  This module
    exposes a {e monotonized} reading: the raw clock wrapped in a
    high-water mark, so observed time never decreases even when the wall
    clock steps back.  Forward steps still advance it (there is no raw
    monotonic source in the stdlib), but a deadline can only fire {e early}
    by a forward step, never hang forever on a backward one — the failure
    mode that matters for load shedding.

    Deadlines are the service's end-to-end time budgets: armed once at
    admission, threaded through the mapper's configuration, and polled at
    cooperative checkpoints (engine event batches, Pathfinder negotiation
    rounds, annealer move chunks).  A checkpoint calls {!check}, which
    raises {!Expired}; the mapper entry points catch it and return the
    typed [Deadline_exceeded] error, so an expired request yields a
    structured refusal instead of running hot. *)

val monotonize : (unit -> float) -> unit -> float
(** [monotonize raw] wraps a clock source in a private high-water mark:
    every call returns [max (raw ()) previous], so the wrapped source
    never goes backwards.  Thread/domain-safe.  Exposed for testing the
    wrapper against a steppable fake source. *)

val now_s : unit -> float
(** Monotonized wall-clock seconds (process-wide high-water mark). *)

val now_ms : unit -> float
(** [now_s () *. 1000.] *)

type deadline
(** An absolute point on the monotonized clock plus the budget that armed
    it.  Immutable; safe to share across domains. *)

val after_ms : float -> deadline
(** [after_ms b] arms a deadline [b] milliseconds from now.  A
    non-positive budget is already expired. *)

val budget_ms : deadline -> float
(** The budget the deadline was armed with. *)

val expired : deadline -> bool

exception Expired of { budget_ms : float }
(** Raised by {!check} at a cooperative cancellation checkpoint.  Carries
    the armed budget so catchers can report the typed error. *)

val check : deadline -> unit
(** @raise Expired when the deadline has passed.  The checkpoint
    primitive: cheap enough to poll every few hundred inner-loop steps. *)

val guard : deadline option -> (unit -> unit) option
(** [guard (Some d)] is [Some (fun () -> check d)]; [guard None] is
    [None].  The shape engine/router checkpoints take. *)
