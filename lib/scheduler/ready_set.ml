open Qasm

type status = Waiting | Ready | Deferred | In_flight | Done

(* The frontier is kept incrementally, so no operation scans all [n]
   statuses after [create]:
   - [bag.(0 .. n_ready-1)] holds the ready ids in no particular order and
     [pos.(i)] is the slot of ready id [i], for O(1) add and swap-remove;
   - [deferred.(0 .. n_busy-1)] is the busy queue, a stack that
     [requeue_busy] empties back into the bag.
   [status] stays the source of truth for [is_ready] and the state checks. *)
type t = {
  dag : Dag.t;
  priorities : float array;
  status : status array;
  pending_preds : int array;
  bag : int array;
  pos : int array;
  deferred : int array;
  scratch : int array; (* reusable snapshot buffer for iter_ready *)
  mutable n_ready : int;
  mutable n_done : int;
  mutable n_busy : int;
  mutable n_flight : int;
  mutable n_readied : int; (* ids the last [mark_done] readied: the bag's tail *)
}

let add t i =
  t.status.(i) <- Ready;
  t.bag.(t.n_ready) <- i;
  t.pos.(i) <- t.n_ready;
  t.n_ready <- t.n_ready + 1

(* swap-remove: the last bag entry takes [i]'s slot *)
let remove t i =
  let p = t.pos.(i) in
  let last = t.bag.(t.n_ready - 1) in
  t.bag.(p) <- last;
  t.pos.(last) <- p;
  t.n_ready <- t.n_ready - 1

let create dag ~priorities =
  let n = Dag.num_nodes dag in
  if Array.length priorities <> n then invalid_arg "Ready_set.create: priorities length mismatch";
  let pending_preds = Dag.in_degrees dag in
  let t =
    {
      dag;
      priorities;
      status = Array.make n Waiting;
      pending_preds;
      bag = Array.make n 0;
      pos = Array.make n 0;
      deferred = Array.make n 0;
      scratch = Array.make n 0;
      n_ready = 0;
      n_done = 0;
      n_busy = 0;
      n_flight = 0;
      n_readied = 0;
    }
  in
  for i = 0 to n - 1 do
    if pending_preds.(i) = 0 then add t i
  done;
  t

(* highest priority first, ties toward lower id — a total order, so every
   correct sort (the insertion sort below, List.sort in [ready]) yields the
   same sequence whatever order the bag holds its ids in *)
let before t a b =
  match Float.compare t.priorities.(b) t.priorities.(a) with 0 -> a < b | c -> c < 0

let ready t =
  List.sort
    (fun a b -> if a = b then 0 else if before t a b then -1 else 1)
    (List.init t.n_ready (fun k -> t.bag.(k)))

let ready_count t = t.n_ready

let iter_ready t f =
  (* allocation-free [ready]: copy the bag into the reusable scratch,
     insertion sort it (ready sets are small), iterate.  The buffer is only
     valid during this call — [f] may mutate the set freely, the snapshot
     is already taken, exactly like iterating the list [ready] built. *)
  let buf = t.scratch in
  let k = t.n_ready in
  Array.blit t.bag 0 buf 0 k;
  for i = 1 to k - 1 do
    let x = buf.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && before t x buf.(!j) do
      buf.(!j + 1) <- buf.(!j);
      decr j
    done;
    buf.(!j + 1) <- x
  done;
  for i = 0 to k - 1 do
    f buf.(i)
  done

let is_ready t i = t.status.(i) = Ready

let mark_issued t i =
  if t.status.(i) <> Ready then invalid_arg "Ready_set.mark_issued: instruction not ready";
  remove t i;
  t.n_readied <- 0;
  t.status.(i) <- In_flight;
  t.n_flight <- t.n_flight + 1

(* [add] appends, so the ids a completion readies end up as the bag's
   last [n_readied] entries, in successor order; [readied] reads them
   there and nothing is allocated per completion *)
let rec unblock t = function
  | [] -> ()
  | s :: rest ->
      t.pending_preds.(s) <- t.pending_preds.(s) - 1;
      if t.pending_preds.(s) = 0 && t.status.(s) = Waiting then add t s;
      unblock t rest

let mark_done t i =
  (match t.status.(i) with
  | In_flight -> t.n_flight <- t.n_flight - 1
  | Ready -> remove t i (* declarations complete without issue *)
  | Waiting | Deferred | Done -> invalid_arg "Ready_set.mark_done: bad state");
  t.status.(i) <- Done;
  t.n_done <- t.n_done + 1;
  let before = t.n_ready in
  unblock t (Dag.node t.dag i).Dag.succs;
  t.n_readied <- t.n_ready - before;
  t.n_readied

let readied t j =
  if j < 0 || j >= t.n_readied then invalid_arg "Ready_set.readied: index out of range";
  t.bag.(t.n_ready - t.n_readied + j)

let defer t i =
  if t.status.(i) <> Ready then invalid_arg "Ready_set.defer: instruction not ready";
  remove t i;
  t.n_readied <- 0;
  t.status.(i) <- Deferred;
  t.deferred.(t.n_busy) <- i;
  t.n_busy <- t.n_busy + 1

let requeue_busy t =
  for k = 0 to t.n_busy - 1 do
    add t t.deferred.(k)
  done;
  t.n_busy <- 0;
  t.n_readied <- 0

let busy_count t = t.n_busy
let done_count t = t.n_done
let all_done t = t.n_done = Dag.num_nodes t.dag
let in_flight_count t = t.n_flight
