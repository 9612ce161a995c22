module Graph = Fabric.Graph

type flavor = Plain | Guided

(* Soft caps: beyond them lookups keep working but new entries are not
   stored, so a pathological workload degrades to the uncached cost instead
   of growing without bound.  Hit/miss behaviour stays deterministic — the
   caps are reached at the same point for the same query sequence. *)
let max_paths = 200_000
let max_bounds = 512

(* A frozen, immutable-after-build union of cache tables for one fabric
   graph.  Built on a single domain (freeze), published through a mutex
   (the Domain_pool queue gives the happens-before edge) and then only
   read — which the OCaml memory model permits concurrently without
   further synchronization.  Entries are pure functions of
   (graph, turn_cost, src, dst), so a shared hit replays the uncached
   search bit-for-bit no matter which domain stored it. *)
type snapshot = {
  snap_graph : Graph.t;
  snap_bounds : (float * int, Lower_bound.t) Hashtbl.t;
  snap_plain : (float * int * int, Path.t option) Hashtbl.t;
  snap_guided : (float * int * int, Path.t option) Hashtbl.t;
}

type t = {
  workspace : Workspace.t;  (* scratch for table builds and cached searches *)
  mutable graph : Graph.t option;  (* physical identity of the cached fabric *)
  bounds : (float * int, Lower_bound.t) Hashtbl.t;
  plain : (float * int * int, Path.t option) Hashtbl.t;
  guided : (float * int * int, Path.t option) Hashtbl.t;
  mutable shared : snapshot option;  (* read-only fallback layer *)
  mutable hits : int;
  mutable misses : int;
  mutable shared_hits : int;
  mutable bound_builds : int;
}

let create () =
  {
    workspace = Workspace.create ();
    graph = None;
    bounds = Hashtbl.create 32;
    plain = Hashtbl.create 256;
    guided = Hashtbl.create 256;
    shared = None;
    hits = 0;
    misses = 0;
    shared_hits = 0;
    bound_builds = 0;
  }

let clear t =
  t.graph <- None;
  t.shared <- None;
  Hashtbl.reset t.bounds;
  Hashtbl.reset t.plain;
  Hashtbl.reset t.guided

let for_graph t graph =
  match t.graph with
  | Some g when g == graph -> ()
  | Some _ ->
      clear t;
      t.graph <- Some graph
  | None -> t.graph <- Some graph

let attach t snap =
  for_graph t snap.snap_graph;
  t.shared <- Some snap

let freeze t =
  match t.graph with
  | None -> invalid_arg "Route_cache.freeze: cache is not bound to a graph"
  | Some graph ->
      let bounds = Hashtbl.copy t.bounds in
      let plain = Hashtbl.copy t.plain in
      let guided = Hashtbl.copy t.guided in
      (* union with the attached layer so folding freeze over a wave of
         job caches accumulates every entry seen so far; local entries
         win ties, which is value-neutral (both sides cached the same
         pure result) *)
      let union dst src =
        Hashtbl.iter (fun k v -> if not (Hashtbl.mem dst k) then Hashtbl.add dst k v) src
      in
      (match t.shared with
      | Some s when s.snap_graph == graph ->
          union bounds s.snap_bounds;
          union plain s.snap_plain;
          union guided s.snap_guided
      | _ -> ());
      { snap_graph = graph; snap_bounds = bounds; snap_plain = plain; snap_guided = guided }

let snapshot_paths s = Hashtbl.length s.snap_plain + Hashtbl.length s.snap_guided
let snapshot_bounds s = Hashtbl.length s.snap_bounds

let workspace t = t.workspace

let shared_lower_bound t key =
  match t.shared with
  | Some s -> Hashtbl.find_opt s.snap_bounds key
  | None -> None

let lower_bound t graph ~turn_cost ~dst =
  for_graph t graph;
  let key = (turn_cost, dst) in
  match Hashtbl.find_opt t.bounds key with
  | Some lb -> lb
  | None -> (
      match shared_lower_bound t key with
      | Some lb -> lb
      | None ->
          t.bound_builds <- t.bound_builds + 1;
          let lb = Lower_bound.build ~workspace:t.workspace graph ~turn_cost ~dst in
          if Hashtbl.length t.bounds < max_bounds then Hashtbl.add t.bounds key lb;
          lb)

let table t = function Plain -> t.plain | Guided -> t.guided

let shared_table s = function Plain -> s.snap_plain | Guided -> s.snap_guided

let find t flavor ~turn_cost ~src ~dst =
  let key = (turn_cost, src, dst) in
  match Hashtbl.find_opt (table t flavor) key with
  | Some _ as hit ->
      t.hits <- t.hits + 1;
      hit
  | None -> (
      match t.shared with
      | Some s -> (
          match Hashtbl.find_opt (shared_table s flavor) key with
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

let store t flavor ~turn_cost ~src ~dst path =
  let tbl = table t flavor in
  if Hashtbl.length tbl < max_paths then Hashtbl.replace tbl (turn_cost, src, dst) path

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
