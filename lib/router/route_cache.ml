module Graph = Fabric.Graph

(* Soft cap: beyond it lookups keep working but new paths are not stored,
   so a pathological workload degrades to the uncached cost instead of
   growing without bound.  Hit/miss behaviour stays deterministic — the cap
   is reached at the same point for the same query sequence. *)
let max_paths = 200_000

(* A frozen, immutable-after-build union of path tables for one fabric
   graph, plus the stores the frozen caches read (shared as they are:
   write-once cells).  Built on a single domain (freeze), published
   through a mutex (the Domain_pool queue gives the happens-before edge)
   and then only read — which the OCaml memory model permits concurrently
   without further synchronization.  Entries are pure functions of
   (graph, turn_cost, src, dst), so a shared hit replays the uncached
   search bit-for-bit no matter which domain stored it. *)
type snapshot = {
  snap_graph : Graph.t;
  snap_paths : (float * int * int, Path.t option) Hashtbl.t;
  snap_stores : Lower_bound.t list;
}

type t = {
  mutable graph : Graph.t option;  (* physical identity of the cached fabric *)
  mutable stores : Lower_bound.t list;
      (* the bound graph's table stores, one per turn cost, a handed one first *)
  paths : (float * int * int, Path.t option) Hashtbl.t;
  mutable shared : snapshot option;  (* read-only fallback layer *)
  mutable hits : int;
  mutable misses : int;
  mutable shared_hits : int;
  mutable bound_builds : int;
}

let create () =
  {
    graph = None;
    stores = [];
    paths = Hashtbl.create 256;
    shared = None;
    hits = 0;
    misses = 0;
    shared_hits = 0;
    bound_builds = 0;
  }

let clear t =
  t.graph <- None;
  t.stores <- [];
  t.shared <- None;
  Hashtbl.reset t.paths

let for_graph t graph =
  match t.graph with
  | Some g when g == graph -> ()
  | Some _ ->
      clear t;
      t.graph <- Some graph
  | None -> t.graph <- Some graph

let at_turn_cost turn_cost s = Float.equal (Lower_bound.turn_cost s) turn_cost

(* [stores], then each of [others] at a turn cost [stores] lacks *)
let union stores others =
  stores
  @ List.filter (fun o -> not (List.exists (at_turn_cost (Lower_bound.turn_cost o)) stores)) others

let use_bounds t store =
  for_graph t (Lower_bound.graph store);
  match t.stores with s :: _ when s == store -> () | stores -> t.stores <- union [ store ] stores

let attach t snap =
  for_graph t snap.snap_graph;
  t.shared <- Some snap;
  t.stores <- union t.stores snap.snap_stores

let freeze t =
  match t.graph with
  | None -> invalid_arg "Route_cache.freeze: cache is not bound to a graph"
  | Some graph ->
      let paths = Hashtbl.copy t.paths in
      (* union with the attached layer so folding freeze over a wave of
         job caches accumulates every entry seen so far; local entries
         win ties, which is value-neutral (both sides cached the same
         pure result).  [attach] already took the layer's stores. *)
      (match t.shared with
      | Some s when s.snap_graph == graph ->
          Hashtbl.iter (fun k v -> if not (Hashtbl.mem paths k) then Hashtbl.add paths k v) s.snap_paths
      | _ -> ());
      { snap_graph = graph; snap_paths = paths; snap_stores = t.stores }

let snapshot_paths s = Hashtbl.length s.snap_paths

(* the store at [turn_cost], made on the first lookup at a turn cost no
   store was handed or attached for *)
let rec store_at t graph turn_cost = function
  | s :: _ when at_turn_cost turn_cost s -> s
  | _ :: rest -> store_at t graph turn_cost rest
  | [] ->
      let s = Lower_bound.create graph ~turn_cost in
      t.stores <- t.stores @ [ s ];
      s

let lower_bound t graph ~turn_cost ~dst =
  for_graph t graph;
  let store = store_at t graph turn_cost t.stores in
  if not (Lower_bound.is_built store dst) then t.bound_builds <- t.bound_builds + 1;
  Lower_bound.toward store dst

let find t ~turn_cost ~src ~dst =
  let key = (turn_cost, src, dst) in
  match Hashtbl.find_opt t.paths key with
  | Some _ as hit ->
      t.hits <- t.hits + 1;
      hit
  | None -> (
      match t.shared with
      | Some s -> (
          match Hashtbl.find_opt s.snap_paths key with
          | Some _ as hit ->
              t.hits <- t.hits + 1;
              t.shared_hits <- t.shared_hits + 1;
              hit
          | None ->
              t.misses <- t.misses + 1;
              None)
      | None ->
          t.misses <- t.misses + 1;
          None)

let store t ~turn_cost ~src ~dst path =
  if Hashtbl.length t.paths < max_paths then Hashtbl.replace t.paths (turn_cost, src, dst) path

let hits t = t.hits
let misses t = t.misses
let shared_hits t = t.shared_hits
let bound_builds t = t.bound_builds

(* One cache per domain: placement search fans candidate evaluations out over
   Domain_pool workers, and each worker keeps its own cache for the hundreds
   of near-identical candidate routings it evaluates.  Cached values are pure
   functions of (graph, turn_cost, src, dst), so which domain served a
   candidate never changes its result — jobs=1 and jobs=N stay bit-identical. *)
let key = Domain.DLS.new_key create

let domain_local () = Domain.DLS.get key
