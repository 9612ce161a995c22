(** Deterministic pseudo-random number generation.

    All stochastic components of the mapper (Monte-Carlo placement, MVFB
    seeds) draw from an explicit generator state so that every experiment in
    the paper reproduction is replayable from a seed.  The generator is
    xoshiro256** seeded through splitmix64, which has good statistical
    quality and is trivially portable. *)

type t
(** Mutable generator state: the four xoshiro256** words, held unboxed so
    that drawing from {!int}, {!float} or {!bool} allocates nothing beyond
    a returned float.  A change of representation must keep every output
    bit-identical — the test suite pins known-answer streams. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed via splitmix64. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each placement seed its own stream. *)

val derive : int -> index:int -> t
(** [derive seed ~index] is the [index]-th independent stream of the root
    [seed] — a pure function of [(seed, index)], so parallel workers can
    reconstruct exactly the stream a sequential loop would use for run
    [index] without sharing generator state.
    @raise Invalid_argument on a negative index. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)
