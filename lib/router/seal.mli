(** Exact O(degree²) proofs that a route search must fail.

    A search that returns [None] has to settle every node reachable from the
    source under finite weights first — on a congested fabric that is most
    of the graph.  These checks recognise the common hopeless cases from the
    two endpoints' neighbourhoods alone.  Each is {e exact}: when it holds,
    plain Dijkstra on the same weights returns [None], so skipping the
    search changes no result (doc/router.md, "Unroutable searches").

    [ew] holds the weight of every CSR edge index, [infinity] on saturated
    edges — in the engine, the array {!Congestion.track_weights} keeps
    live.  Both checks assume [src <> dst]. *)

val source_sealed : Fabric.Graph.t -> float array -> src:Fabric.Graph.node -> dst:Fabric.Graph.node -> bool
(** Every out-edge [src → v] is saturated, or [v <> dst] and every out-edge
    of [v] is saturated except those back to [src].  Then every walk from
    [src] oscillates between [src] and its neighbours and never reaches
    [dst]. *)

val dest_sealed : Fabric.Graph.t -> float array -> src:Fabric.Graph.node -> dst:Fabric.Graph.node -> bool
(** The in-edge mirror: every in-edge [u → dst] is saturated, or [u <> src]
    and every in-edge of [u] is saturated except those from [dst].  Then a
    walk can only enter [dst] from a node it entered from [dst], so no walk
    from [src] reaches [dst] a first time. *)
