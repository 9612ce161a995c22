(* Intrusive doubly-linked recency list threaded through the hash table's
   entries.  [head] is most-recent, [tail] least-recent; a dummy sentinel
   avoids option-chasing at the ends. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable born : float;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  cap : int;
  ttl_s : float option;
  now : unit -> float;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable expirations : int;
}

let create ?ttl_s ?(now = Clock.now_s) ~cap () =
  if cap < 0 then invalid_arg "Lru.create: negative capacity";
  (match ttl_s with
  | Some t when t <= 0.0 -> invalid_arg "Lru.create: ttl must be positive"
  | _ -> ());
  {
    cap;
    ttl_s;
    now;
    tbl = Hashtbl.create (max 4 cap);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    expirations = 0;
  }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let drop t n =
  unlink t n;
  Hashtbl.remove t.tbl n.key

let expired t n =
  match t.ttl_s with None -> false | Some ttl -> t.now () -. n.born > ttl

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some n when expired t n ->
      drop t n;
      t.expirations <- t.expirations + 1;
      t.misses <- t.misses + 1;
      None
  | Some n ->
      unlink t n;
      push_front t n;
      t.hits <- t.hits + 1;
      Some n.value

let peek t k =
  match Hashtbl.find_opt t.tbl k with
  | Some n when not (expired t n) -> Some n.value
  | Some _ | None -> None

let put t k v =
  if t.cap > 0 then
    match Hashtbl.find_opt t.tbl k with
    | Some n ->
        n.value <- v;
        n.born <- t.now ();
        unlink t n;
        push_front t n
    | None ->
        if Hashtbl.length t.tbl >= t.cap then (
          match t.tail with
          | Some lru ->
              drop t lru;
              t.evictions <- t.evictions + 1
          | None -> ());
        let n = { key = k; value = v; born = t.now (); prev = None; next = None } in
        Hashtbl.replace t.tbl k n;
        push_front t n

let remove t k =
  match Hashtbl.find_opt t.tbl k with None -> () | Some n -> drop t n

let mem t k = Hashtbl.mem t.tbl k
let length t = Hashtbl.length t.tbl
let capacity t = t.cap

let iter f t =
  let rec go = function
    | None -> ()
    | Some n ->
        f (n.key, n.value);
        go n.next
  in
  go t.head

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let expirations t = t.expirations
