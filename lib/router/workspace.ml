type t = {
  mutable dist : float array;
  mutable hops : int array;
  mutable pred_edge : int array;
  mutable pred_node : int array;
  mutable reached : int array;
  mutable settled : int array;
  mutable generation : int;
  mutable settled_nodes : int;
  queue : Ion_util.Fheap.t;
  mutable edge_weights : float array;
}

let create () =
  {
    dist = [||];
    hops = [||];
    pred_edge = [||];
    pred_node = [||];
    reached = [||];
    settled = [||];
    generation = 0;
    settled_nodes = 0;
    queue = Ion_util.Fheap.create ();
    edge_weights = [||];
  }

let edge_weights_for t m =
  if Array.length t.edge_weights < m then t.edge_weights <- Array.make m 0.0;
  t.edge_weights

let prepare t n =
  if Array.length t.dist < n then begin
    t.dist <- Array.make n Float.infinity;
    t.hops <- Array.make n 0;
    t.pred_edge <- Array.make n (-1);
    t.pred_node <- Array.make n (-1);
    t.reached <- Array.make n 0;
    t.settled <- Array.make n 0;
    t.generation <- 0
  end;
  t.generation <- t.generation + 1;
  t.settled_nodes <- 0;
  Ion_util.Fheap.clear t.queue

let dist t n = if t.reached.(n) = t.generation then t.dist.(n) else Float.infinity

let is_settled t n = t.settled.(n) = t.generation

(* A workspace per domain, created on first use: engine runs and cache
   builds on the same domain are strictly sequential, so sharing one set of
   generation-stamped arrays across them is safe and keeps repeated runs
   from re-growing fresh arrays. *)
let key = Domain.DLS.new_key create

let domain_local () = Domain.DLS.get key
