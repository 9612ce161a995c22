(** Bounded key-value cache with LRU eviction and optional TTL expiry.

    The service's resource-bounding primitive: the response cache and the
    per-fabric warm-state registry both cap their footprint with this —
    under many distinct keys the oldest-used entry is evicted instead of
    the table growing without bound (the crash-only discipline: any entry
    may vanish at any time, so holders treat lookups as hints).

    Recency is maintained with an intrusive doubly-linked list over the
    entries, so [find]/[put] are O(1) amortized.  A TTL, when set, expires
    entries lazily at lookup time against the supplied clock.  Single
    domain: callers serialize access (the scheduler touches its caches on
    the main domain only). *)

type ('k, 'v) t

val create : ?ttl_s:float -> ?now:(unit -> float) -> cap:int -> unit -> ('k, 'v) t
(** [cap] is the maximum entry count; [cap = 0] disables the cache (every
    [put] is dropped, every [find] misses).  [ttl_s], when given, expires
    entries that many seconds after insertion.  [now] (default
    {!Clock.now_s}) supplies the clock — injectable for deterministic
    tests.
    @raise Invalid_argument on negative [cap] or non-positive [ttl_s]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit refreshes the entry's recency.  An entry past its TTL is
    removed and counted as an expiry, not a hit. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Lookup that leaves the cache exactly as it was: no recency refresh, no
    hit/miss count, no expiry (an entry past its TTL reads as absent but
    stays until a [find] drops it). *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, making the entry most-recent.  When the cache is
    full the least-recently-used entry is evicted first. *)

val remove : ('k, 'v) t -> 'k -> unit
val mem : ('k, 'v) t -> 'k -> bool
(** [mem] does not refresh recency and does not expire. *)

val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int

val iter : (('k * 'v) -> unit) -> ('k, 'v) t -> unit
(** Most-recent first.  Does not expire or refresh. *)

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int
(** Entries dropped to make room (capacity pressure only). *)

val expirations : ('k, 'v) t -> int
(** Entries dropped because their TTL had passed at lookup. *)
