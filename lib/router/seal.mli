(** Exact, allocation-free proofs that a route search must fail.

    A search that returns [None] has to settle every node reachable from the
    source under finite weights first — on a congested fabric that is most
    of the graph.  These checks recognise the common hopeless cases without
    searching: two O(degree²) checks on the endpoints' two-hop
    neighbourhoods, and one O(1) check on the precomputed cut around the
    destination trap's channel segment.  Each is {e exact}: when it holds,
    plain Dijkstra on the same weights returns [None], so skipping the
    search changes no result (doc/router.md, "Unroutable searches").

    [ew] holds the weight of every CSR edge index, [infinity] on saturated
    edges — in the engine, the array {!Congestion.track_weights} keeps
    live.  Every check assumes the two endpoints differ. *)

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

val pocket_sealed : Fabric.Graph.t -> float array -> src_trap:int -> dst_trap:int -> bool
(** Trap [dst_trap] is tapped on a channel segment [s], trap [src_trap] is
    not, and every edge entering [s]'s pocket ({!Fabric.Graph.pocket_edge})
    is saturated, as when both junctions at [s]'s ends are full.  The pocket holds
    [dst_trap]'s node but not [src_trap]'s, so every walk between them
    enters the pocket over one of those edges.  Costs two tap-segment reads
    and at most one weight read per row edge (3–6 on the grid fabrics),
    stopping at the first finite one. *)
