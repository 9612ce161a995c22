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
