module Graph = Fabric.Graph

(* Toplevel recursion over CSR index ranges, so a check allocates nothing:
   a local [let rec] would capture the graph and weights in a closure. *)

(* every out-edge of [v] in [i, stop) is saturated or leads back to [back] *)
let rec outs_cut graph ew ~back i stop =
  i >= stop
  || ((Graph.succ_dst graph i = back || ew.(i) = Float.infinity) && outs_cut graph ew ~back (i + 1) stop)

(* every in-edge in [k, stop) is saturated or comes from [back] *)
let rec ins_cut graph ew ~back k stop =
  k >= stop
  ||
  let i = Graph.pred_edge graph k in
  (Graph.edge_src graph i = back || ew.(i) = Float.infinity) && ins_cut graph ew ~back (k + 1) stop

let rec source_go graph ew ~src ~dst i stop =
  i >= stop
  ||
  let v = Graph.succ_dst graph i in
  (ew.(i) = Float.infinity
  || (v <> dst && outs_cut graph ew ~back:src (Graph.succ_start graph v) (Graph.succ_stop graph v)))
  && source_go graph ew ~src ~dst (i + 1) stop

let source_sealed graph ew ~src ~dst =
  source_go graph ew ~src ~dst (Graph.succ_start graph src) (Graph.succ_stop graph src)

let rec dest_go graph ew ~src ~dst k stop =
  k >= stop
  ||
  let i = Graph.pred_edge graph k in
  let u = Graph.edge_src graph i in
  (ew.(i) = Float.infinity
  || (u <> src && ins_cut graph ew ~back:dst (Graph.pred_start graph u) (Graph.pred_stop graph u)))
  && dest_go graph ew ~src ~dst (k + 1) stop

let dest_sealed graph ew ~src ~dst =
  dest_go graph ew ~src ~dst (Graph.pred_start graph dst) (Graph.pred_stop graph dst)

(* every pocket in-edge in [k, stop) is saturated *)
let rec pocket_cut graph ew k stop =
  k >= stop || (ew.(Graph.pocket_edge graph k) = Float.infinity && pocket_cut graph ew (k + 1) stop)

let pocket_sealed graph ew ~src_trap ~dst_trap =
  let s = Graph.trap_segment graph dst_trap in
  s >= 0
  && Graph.trap_segment graph src_trap <> s
  && pocket_cut graph ew (Graph.pocket_edges_start graph s) (Graph.pocket_edges_stop graph s)
