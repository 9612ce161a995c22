(** Fixed-size domain worker pool for embarrassingly parallel search.

    The placement searches (Monte-Carlo runs, MVFB seeds, per-circuit
    experiment sweeps) evaluate many independent schedule-and-route runs;
    this pool fans those evaluations out across OCaml 5 domains using only
    the stdlib ([Domain], [Mutex], [Condition] — no external dependency).

    Determinism contract: [map] preserves input order in its output and
    callers must derive any per-task randomness from the task {e index}
    (see {!Rng.derive}), never from shared mutable state, so results are
    bit-identical whatever the pool size.  A pool of size 1 spawns no
    domains and executes inline — the exact sequential semantics.

    The caller of [map] participates in the work, so a pool sized [jobs]
    provides [jobs]-way parallelism with [jobs - 1] worker domains. *)

type t

val create : jobs:int -> t
(** Spawns [jobs - 1] worker domains.  @raise Invalid_argument on [jobs < 1]. *)

val sequential : t
(** The shared inline pool of size 1: no domains, no locking on [map]. *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f arr] applies [f] to every element, in parallel across the pool,
    returning results in input order.  If any [f] raises, the first
    exception (in completion order) is re-raised after all tasks finish;
    with [jobs t = 1] this is exactly [Array.map f arr]. *)

val shutdown : t -> unit
(** Joins all worker domains.  The pool must not be used afterwards. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** Creates a pool, runs the function and always shuts the pool down.
    [jobs <= 1] reuses {!sequential} without spawning anything. *)

val map_seeded :
  jobs:int ->
  seed:int ->
  (index:int -> rng:Rng.t -> 'a -> 'b) -> 'a array -> 'b array
(** The seeded fan-out behind fault campaigns: task [i] receives its index
    and the derived stream [Rng.derive seed ~index:i], so results are
    bit-identical at any [jobs] count.  A pool of size [jobs] is created
    for the call via {!with_pool}. *)
