(** Reusable scratch state for shortest-path queries.

    A fresh Dijkstra run over the 45x85 fabric graph allocates three
    node-sized arrays and a priority queue; the engine issues one such query
    per routed operand, so placement search spends much of its time feeding
    the minor heap.  A workspace owns those arrays and is reused across
    queries: {!prepare} bumps a generation counter instead of clearing, and
    a slot is only trusted when its stamp matches the current generation —
    O(1) reset, O(touched) work per query, O(path) allocation.

    A workspace is single-query mutable state: never share one between
    domains; give each engine/search its own (they are cheap when idle). *)

type t = {
  mutable dist : float array;  (** tentative cost; valid iff reached stamp matches *)
  mutable hops : int array;
      (** edge count of the tentative path, the label's tie-break
          ({!Dijkstra.run_into}); valid iff reached stamp matches *)
  mutable pred_edge : int array;  (** lowest-index tight in-edge of the node's label; -1 at the source *)
  mutable pred_node : int array;  (** predecessor node on the shortest path *)
  mutable reached : int array;  (** generation stamp: dist/pred are valid *)
  mutable settled : int array;  (** generation stamp: node popped with final cost *)
  mutable generation : int;
  mutable settled_nodes : int;
      (** nodes the last {!Dijkstra.run_into} settled (popped with a final
          cost) — the search's work count; 0 after {!prepare} *)
  queue : Ion_util.Fheap.t;  (** unboxed frontier: no allocation per push *)
  mutable edge_weights : float array;
      (** per-edge weight slot for {!Dijkstra.run_into}'s [weights];
          sized by {!edge_weights_for}.  An engine run owns it
          from start to finish as its live Eq. 2 weights *)
}

val create : unit -> t
(** An empty workspace; arrays grow to the graph size on first {!prepare}. *)

val domain_local : unit -> t
(** This domain's shared workspace (created on first use).  Safe to use for
    any strictly sequential sequence of queries on the calling domain; never
    share the returned value with another domain. *)

val prepare : t -> int -> unit
(** [prepare t n] readies the workspace for a query on an [n]-node graph:
    grows the arrays if needed, invalidates all previous stamps by bumping
    the generation, zeroes [settled_nodes] and clears the queue. *)

val dist : t -> int -> float
(** Tentative distance of a node in the current generation, [infinity] when
    untouched. *)

val is_settled : t -> int -> bool

val edge_weights_for : t -> int -> float array
(** [edge_weights_for t m] returns the per-edge weight slot, grown to at
    least [m] slots.  [Simulator.Engine.run] hands it to
    {!Congestion.track_weights}, which keeps it equal to the live Eq. 2
    weights for the whole run, and passes it to every
    {!Dijkstra.run_into} as [weights], so no run allocates an O(edges)
    array of its own.  Because the slot's contents must stay live between
    searches, nothing else on the domain may write it while an engine run
    is in progress; a run that starts refills it from scratch. *)
