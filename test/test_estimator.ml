(* Tests of the LEQA-style latency estimator and the placement
   pre-screening pipeline: distance-table sanity, estimate determinism and
   Domain_pool bit-identity, accuracy and rank correlation against the
   measured engine, and the pre-screened searches' solution contract. *)

open Qspr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fabric () = Fabric.Layout.quale_45x85 ()

let ctx_of ?(config = Config.default) name =
  let program = List.assoc name (Circuits.Qecc.all ()) in
  match Mapper.create ~fabric:(fabric ()) ~config program with
  | Ok c -> c
  | Error e -> Alcotest.failf "Mapper.create: %s" e

(* [strategy] on [ctx] at [m] seeds or runs, on [jobs] domains, routing
   only the [prescreen] best-estimated candidates *)
let map_at ~m ?(jobs = 1) ?prescreen strategy ctx =
  let tune c = Config.(c |> with_m m |> with_jobs jobs |> with_prescreen prescreen) in
  Mapper.map strategy (Mapper.with_search tune ctx)

let measured ctx placement =
  match Mapper.run_forward ctx placement with
  | Ok r -> r.Simulator.Engine.latency
  | Error e -> Alcotest.failf "run_forward: %s" (Simulator.Engine.string_of_error e)

(* the 25-candidate pool a Monte-Carlo search at seed 2012 would draw *)
let mc_pool ctx =
  let comp = Mapper.component ctx in
  let nq = Qasm.Program.num_qubits (Mapper.program ctx) in
  Array.init 25 (fun i ->
      Placer.Center.place_permuted (Ion_util.Rng.derive 2012 ~index:i) comp ~num_qubits:nq)

(* ------------------------------------------------------------- distance *)

let test_distance_tables () =
  let ctx = ctx_of "[[5,1,3]]" in
  let d = Estimator.Model.distance (Mapper.estimator_model ctx) in
  let n = Estimator.Distance.num_traps d in
  check_int "one entry per trap" (Array.length (Fabric.Component.traps (Mapper.component ctx))) n;
  for a = 0 to n - 1 do
    check_bool "self distance zero" true (Estimator.Distance.between d a a = 0.0);
    let b = (a + 7) mod n in
    check_bool "symmetric" true
      (Float.abs (Estimator.Distance.between d a b -. Estimator.Distance.between d b a) < 1e-9);
    check_bool "positive off-diagonal" true (a = b || Estimator.Distance.between d a b > 0.0);
    let m = Estimator.Distance.meet d a b in
    check_bool "meeting trap in range" true (m >= 0 && m < n);
    (* meeting at m is feasible: both legs are finite *)
    check_bool "meet reachable" true
      (Float.is_finite (Estimator.Distance.between d a m)
      && Float.is_finite (Estimator.Distance.between d b m))
  done

(* The eager tables the lazy ones must equal bit for bit: one
   [Dijkstra.distances] sweep per destination node on a fresh workspace
   (made on demand and kept), the trap-to-trap distances sampled from the
   trap nodes' sweeps, and the pairwise min-makespan scan with its
   tie-breaks (least total travel, then lowest trap id; the lower id of a
   disconnected pair) in both argument orders. *)
type reference = { sweep : int -> float array; rdist : float array; rmeet : int array }

let eager_reference graph ~turn_cost =
  let n = Array.length (Fabric.Component.traps (Fabric.Graph.component graph)) in
  let weights = Router.Lower_bound.base_weights graph ~turn_cost in
  let sweeps = Hashtbl.create 16 in
  let sweep v =
    match Hashtbl.find_opt sweeps v with
    | Some d -> d
    | None ->
        let d = Router.Dijkstra.distances graph ~weights ~src:v in
        Hashtbl.add sweeps v d;
        d
  in
  let dist = Array.make (n * n) infinity in
  for a = 0 to n - 1 do
    let row = sweep (Fabric.Graph.trap_node graph a) in
    for b = 0 to n - 1 do
      dist.((a * n) + b) <- row.(Fabric.Graph.trap_node graph b)
    done
  done;
  let meet = Array.make (n * n) 0 in
  for a = 0 to n - 1 do
    meet.((a * n) + a) <- a;
    for b = a + 1 to n - 1 do
      let best = ref (-1) and best_mk = ref infinity and best_sum = ref infinity in
      for m = 0 to n - 1 do
        let da = dist.((a * n) + m) and db = dist.((b * n) + m) in
        let mk = Float.max da db and sum = da +. db in
        if mk < !best_mk || (mk = !best_mk && sum < !best_sum) then begin
          best := m;
          best_mk := mk;
          best_sum := sum
        end
      done;
      let best = if !best < 0 then a else !best in
      meet.((a * n) + b) <- best;
      meet.((b * n) + a) <- best
    done
  done;
  { sweep; rdist = dist; rmeet = meet }

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Every row, distance, meeting trap and both dense tables of [d], and
   every node of every table its store has built, against the reference;
   the first mismatch, if any. *)
let lazy_mismatch d r =
  let n = Estimator.Distance.num_traps d in
  let store = Estimator.Distance.store d in
  let graph = Router.Lower_bound.graph store in
  let fail = ref None in
  let note fmt = Printf.ksprintf (fun m -> if !fail = None then fail := Some m) fmt in
  for a = 0 to n - 1 do
    let row = Estimator.Distance.row d a in
    if row != Router.Lower_bound.toward store (Fabric.Graph.trap_node graph a) then
      note "row %d is not the store's table toward its node" a;
    for b = 0 to n - 1 do
      let want = r.rdist.((a * n) + b) in
      let at_b = row.(Fabric.Graph.trap_node graph b) in
      if not (same_bits (Estimator.Distance.between d a b) want && same_bits at_b want) then
        note "between %d %d = %h, eager %h" a b (Estimator.Distance.between d a b) want;
      if Estimator.Distance.meet d a b <> r.rmeet.((a * n) + b) then
        note "meet %d %d = %d, eager %d" a b (Estimator.Distance.meet d a b) r.rmeet.((a * n) + b)
    done
  done;
  for v = 0 to Fabric.Graph.num_nodes graph - 1 do
    if Router.Lower_bound.is_built store v then
      let table = Router.Lower_bound.toward store v and want = r.sweep v in
      if not (Array.length table = Array.length want && Array.for_all2 same_bits table want) then
        note "table toward node %d differs from its sweep" v
  done;
  let tdist, tmeet = Estimator.Distance.tables d in
  if not (Array.for_all2 same_bits tdist r.rdist) then note "dense distance table differs";
  if tmeet <> r.rmeet then note "dense meeting table differs";
  !fail

let graph_of lay =
  match Fabric.Component.extract lay with
  | Ok comp -> Fabric.Graph.build comp
  | Error e -> Alcotest.failf "extract: %s" e

let quale_graph = lazy (graph_of (fabric ()))

(* Lazy tables on random [make_grid] fabrics, a linear chain or QUALE, at
   turn costs 10 (the Table-1 timing's), 10/3 (off the half-unit grid) and
   0, read in a random order: between, meet and row reads, and reads of
   the store toward any node, sweep exactly the tables they touch (the
   store's [built] is checked after every read), [tables] (read first,
   midway or last) sweeps every trap's, and afterwards every node of
   every table equals a sweep from its destination bit for bit. *)
let prop_lazy_equals_eager =
  QCheck.Test.make ~count:60 ~name:"lazy rows, meet and tables = eager reference"
    QCheck.(triple (int_range 0 9) (int_range 0 2) int)
    (fun (shape, tc, seed) ->
      let rng = Random.State.make [| seed |] in
      let graph =
        if shape = 0 then Lazy.force quale_graph
        else if shape = 1 then graph_of (Fabric.Layout.linear ~traps:(2 + Random.State.int rng 39) ())
        else
          let px = 3 + Random.State.int rng 6 and py = 3 + Random.State.int rng 6 in
          let tpc = 1 + Random.State.int rng (min 2 (px - 2)) in
          graph_of
            (Fabric.Layout.make_grid
               ~width:(((1 + Random.State.int rng 3) * px) + 5)
               ~height:(((1 + Random.State.int rng 3) * py) + 5)
               ~pitch_x:px ~pitch_y:py ~margin:2 ~traps_per_channel:tpc ())
      in
      let turn_cost = [| 10.0; 10.0 /. 3.0; 0.0 |].(tc) in
      let d = Estimator.Distance.build graph ~turn_cost in
      let store = Estimator.Distance.store d in
      let n = Estimator.Distance.num_traps d and nodes = Fabric.Graph.num_nodes graph in
      let touched = Array.make nodes false in
      let touch a = touched.(Fabric.Graph.trap_node graph a) <- true in
      let fail = ref None in
      let expect_built what =
        let want = Array.fold_left (fun k b -> if b then k + 1 else k) 0 touched in
        if Router.Lower_bound.built store <> want && !fail = None then
          fail :=
            Some
              (Printf.sprintf "%s: %d tables built, %d read" what (Router.Lower_bound.built store)
                 want)
      in
      expect_built "build";
      let reads = 1 + Random.State.int rng (2 * n) in
      let dense_at = Random.State.int rng (reads + 1) in
      for k = 0 to reads - 1 do
        if k = dense_at then begin
          ignore (Estimator.Distance.tables d);
          for a = 0 to n - 1 do
            touch a
          done
        end;
        let a = Random.State.int rng n and b = Random.State.int rng n in
        (match Random.State.int rng 4 with
        | 0 ->
            ignore (Estimator.Distance.between d a b);
            touch a
        | 1 ->
            ignore (Estimator.Distance.row d a);
            touch a
        | 2 ->
            let v = Random.State.int rng nodes in
            ignore (Router.Lower_bound.toward store v);
            touched.(v) <- true
        | _ ->
            (* meet a a = a reads no row *)
            ignore (Estimator.Distance.meet d a b);
            if a <> b then begin
              touch a;
              touch b
            end);
        expect_built "read"
      done;
      let reference = eager_reference graph ~turn_cost in
      (match lazy_mismatch d reference with Some m when !fail = None -> fail := Some m | _ -> ());
      for a = 0 to n - 1 do
        touch a
      done;
      expect_built "full";
      match !fail with
      | None -> true
      | Some m -> QCheck.Test.fail_reportf "%d traps, turn cost %g: %s" n turn_cost m)

(* Two domains fill one QUALE table set at once, in opposite row orders,
   each reading every meeting trap of its rows and the dense tables: both
   see one array per destination, in the view and in its store, and the
   eager reference's values. *)
let test_concurrent_fill () =
  let graph = Lazy.force quale_graph in
  let d = Estimator.Distance.build graph ~turn_cost:10.0 in
  let store = Estimator.Distance.store d in
  let n = Estimator.Distance.num_traps d in
  let fill order () =
    let rows =
      Array.map
        (fun a ->
          let row = Estimator.Distance.row d a in
          for b = 0 to n - 1 do
            ignore (Estimator.Distance.meet d a b)
          done;
          (a, row))
        order
    in
    (rows, Estimator.Distance.tables d)
  in
  let up = Array.init n Fun.id and down = Array.init n (fun i -> n - 1 - i) in
  let other = Domain.spawn (fill down) in
  let mine_rows, mine_tables = fill up () in
  let other_rows, other_tables = Domain.join other in
  check_int "every table built once" n (Router.Lower_bound.built store);
  Array.iter
    (fun (a, row) ->
      check_bool "one array per destination" true
        (row == snd other_rows.(n - 1 - a)
        && row == Router.Lower_bound.toward store (Fabric.Graph.trap_node graph a)))
    mine_rows;
  check_bool "one dense pair" true
    (fst mine_tables == fst other_tables && snd mine_tables == snd other_tables);
  match lazy_mismatch d (eager_reference graph ~turn_cost:10.0) with
  | None -> ()
  | Some m -> Alcotest.fail m

(* An MVFB mapping through a context built with a fresh distance table
   set and a fresh route cache: every trap table swept by either layer is
   one array, read by the estimator's view and by the engine's A* lookups
   alike, and the engine's lookups swept some of them. *)
let test_one_table_per_trap () =
  let lay = fabric () in
  let comp = match Fabric.Component.extract lay with Ok c -> c | Error e -> Alcotest.failf "%s" e in
  let graph = Fabric.Graph.build comp in
  let turn_cost = Router.Timing.turn_cost_in_moves Config.default.Config.timing in
  let d = Estimator.Distance.build graph ~turn_cost in
  let cache = Router.Route_cache.create () in
  let ctx =
    match
      Mapper.create ~fabric:lay ~prebuilt:(comp, graph) ~distance:d ~route_cache:cache
        (List.assoc "[[5,1,3]]" (Circuits.Qecc.all ()))
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "Mapper.create: %s" e
  in
  (match map_at ~m:3 Mvfb ctx with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "map: %s" (Mapper.error_to_string e));
  let store = Estimator.Distance.store d in
  let tables = ref 0 in
  for a = 0 to Estimator.Distance.num_traps d - 1 do
    let v = Fabric.Graph.trap_node graph a in
    if Router.Lower_bound.is_built store v then begin
      incr tables;
      check_bool
        (Printf.sprintf "trap %d: one table for the view and the route cache" a)
        true
        (Estimator.Distance.row d a == Router.Route_cache.lower_bound cache graph ~turn_cost ~dst:v)
    end
  done;
  check_int "only trap tables swept" !tables (Router.Lower_bound.built store);
  check_bool "the engine's lookups swept tables" true (Router.Route_cache.bound_builds cache > 0)

(* Two islands of two traps each: every cross pair has no finite meeting
   trap and gets the lower id, in both argument orders. *)
let test_disconnected_meet () =
  let lay =
    match Fabric.Layout.parse "T-T --T-T" with Ok l -> l | Error e -> Alcotest.failf "parse: %s" e
  in
  let graph = graph_of lay in
  let d = Estimator.Distance.build graph ~turn_cost:10.0 in
  let n = Estimator.Distance.num_traps d in
  check_bool "at least three traps" true (n >= 3);
  let cross = ref 0 in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      let m = Estimator.Distance.meet d a b in
      check_int "symmetric" m (Estimator.Distance.meet d b a);
      if Float.is_finite (Estimator.Distance.between d a b) then
        check_bool "reachable meet" true (Float.is_finite (Estimator.Distance.between d a m))
      else begin
        incr cross;
        check_int "disconnected pair meets at the lower id" (min a b) m
      end
    done
  done;
  check_bool "some pair is disconnected" true (!cross > 0);
  check_bool "matches the eager table" true
    (lazy_mismatch d (eager_reference graph ~turn_cost:10.0) = None)

(* -------------------------------------------------- determinism / purity *)

let test_estimate_deterministic () =
  let ctx = ctx_of "[[9,1,3]]" in
  let pool = mc_pool ctx in
  let first = Array.map (Mapper.estimate ctx) pool in
  let second = Array.map (Mapper.estimate ctx) pool in
  check_bool "repeated estimates bit-identical" true (first = second)

let test_estimate_domain_pool_bit_identical () =
  let ctx = ctx_of "[[9,1,3]]" in
  let model = Mapper.estimator_model ctx in
  let pool = mc_pool ctx in
  let sequential = Array.map (Estimator.Model.estimate model) pool in
  let fanned =
    Ion_util.Domain_pool.with_pool ~jobs:4 (fun p ->
        Ion_util.Domain_pool.map p (Estimator.Model.estimate model) pool)
  in
  check_bool "pool map = sequential map" true (sequential = fanned)

let test_estimate_rejects_bad_placements () =
  let ctx = ctx_of "[[5,1,3]]" in
  (match Mapper.estimate ctx [| 0; 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch accepted");
  match Mapper.estimate ctx [| 0; 1; 2; 3; 100_000 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range trap accepted"

(* Estimate bits on all six Table-1 circuits at center placement and the
   first three Monte-Carlo starts of seed 2012: pins the calibrated
   congestion stretch and the event-driven mirror bit for bit. *)
let estimate_pinned =
  [
    "[[5,1,3]] 0x4089280000000000L 0x4086a00000000000L 0x4086f80000000000L 0x4088500000000000L";
    "[[7,1,3]] 0x408778cccccccccdL 0x40866028f5c28f5cL 0x408812f5c28f5c29L 0x408812f5c28f5c29L";
    "[[9,1,3]] 0x4093fd7ae147ae14L 0x40944d7ae147ae14L 0x409429c28f5c28f6L 0x409541c28f5c28f6L";
    "[[14,8,3]] 0x40a8f93333333332L 0x40a9eec28f5c28f6L 0x40ab054cccccccccL 0x40aab99999999998L";
    "[[19,1,7]] 0x40aa7b6666666666L 0x40aa630a3d70a3d7L 0x40aadd147ae147aeL 0x40a9b0051eb851ecL";
    "[[23,1,7]] 0x409e32999999999aL 0x409e7b6666666666L 0x409e62999999999aL 0x409e4fa3d70a3d70L";
  ]

let render_estimates (name, program) =
  let ctx =
    match Mapper.create ~fabric:(fabric ()) program with
    | Ok c -> c
    | Error e -> Alcotest.failf "Mapper.create: %s" e
  in
  let comp = Mapper.component ctx and nq = Qasm.Program.num_qubits program in
  let placements =
    Placer.Center.place comp ~num_qubits:nq
    :: List.init 3 (fun i -> Placer.Center.place_permuted (Ion_util.Rng.derive 2012 ~index:i) comp ~num_qubits:nq)
  in
  let model = Mapper.estimator_model ctx in
  String.concat " "
    (name
    :: List.map
         (fun p -> Printf.sprintf "0x%LxL" (Int64.bits_of_float (Estimator.Model.estimate model p)))
         placements)

let test_estimate_pins () =
  Alcotest.(check (list string))
    "estimate bits" estimate_pinned
    (List.map render_estimates (Circuits.Qecc.all ()))

(* ------------------------------------------------------------ reference *)

(* Reference for [Model.estimate]: the same event loop on its own
   frontier, a ready list insertion-sorted by (priority desc, id asc) each
   round and a 1-indexed binary heap of completions, over arrays rebuilt
   from the model's view, the DAG and the fabric.  The two must return the
   same bits on every placement. *)
let reference_estimate ctx placement =
  let v = Estimator.Model.view (Mapper.estimator_model ctx) in
  let prio = Mapper.qspr_priorities ctx and dag = Mapper.dag ctx in
  let traps = Fabric.Component.traps (Mapper.component ctx) in
  let tx = Array.map (fun tr -> tr.Fabric.Component.tpos.Ion_util.Coord.x) traps in
  let ty = Array.map (fun tr -> tr.Fabric.Component.tpos.Ion_util.Coord.y) traps in
  let dist = v.Estimator.Model.v_dist and tm = v.Estimator.Model.v_timing in
  let kind = v.Estimator.Model.v_kind and qa = v.Estimator.Model.v_qa in
  let qb = v.Estimator.Model.v_qb and stretch = v.Estimator.Model.v_stretch in
  let succs = v.Estimator.Model.v_succs in
  let n = Array.length kind and ntraps = Array.length tx in
  let choose_meet occ a b =
    let mx = (tx.(a) + tx.(b)) / 2 and my = (ty.(a) + ty.(b)) / 2 in
    let best = ref (-1) and best_d = ref max_int in
    for m = 0 to ntraps - 1 do
      if occ.(m) = 0 then begin
        let d = abs (tx.(m) - mx) + abs (ty.(m) - my) in
        if d < !best_d then begin
          best := m;
          best_d := d
        end
      end
    done;
    if !best < 0 then Estimator.Distance.meet dist a b else !best
  in
  let engaged = Array.make v.Estimator.Model.v_nq false and pos = Array.copy placement in
  let occ = Array.make ntraps 0 in
  Array.iter (fun p -> occ.(p) <- occ.(p) + 1) placement;
  let indeg = Array.init n (fun i -> List.length (Qasm.Dag.node dag i).Qasm.Dag.preds) in
  let status = Array.make n 0 and ready = Array.make n 0 in
  let heap_time = Array.make (n + 1) 0.0 and heap_id = Array.make (n + 1) 0 in
  let nready = ref 0 in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then begin
      status.(i) <- 1;
      ready.(!nready) <- i;
      incr nready
    end
  done;
  let nheap = ref 0 in
  let heap_push time id =
    incr nheap;
    let k = ref !nheap in
    while !k > 1 && heap_time.(!k / 2) > time do
      heap_time.(!k) <- heap_time.(!k / 2);
      heap_id.(!k) <- heap_id.(!k / 2);
      k := !k / 2
    done;
    heap_time.(!k) <- time;
    heap_id.(!k) <- id
  in
  let heap_pop () =
    let id = heap_id.(1) in
    let time = heap_time.(!nheap) and tid = heap_id.(!nheap) in
    decr nheap;
    let k = ref 1 in
    let continue = ref (!nheap > 1) in
    while !continue do
      let l = 2 * !k in
      let c =
        if l > !nheap then 0
        else if l + 1 <= !nheap && heap_time.(l + 1) < heap_time.(l) then l + 1
        else l
      in
      if c = 0 || heap_time.(c) >= time then continue := false
      else begin
        heap_time.(!k) <- heap_time.(c);
        heap_id.(!k) <- heap_id.(c);
        k := c
      end
    done;
    if !nheap > 0 then begin
      heap_time.(!k) <- time;
      heap_id.(!k) <- tid
    end;
    id
  in
  let clock = ref 0.0 and latency = ref 0.0 in
  let ready_succs i =
    Array.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 && status.(s) = 0 then begin
          status.(s) <- 1;
          ready.(!nready) <- s;
          incr nready
        end)
      succs.(i)
  in
  let complete i =
    (match kind.(i) with
    | 1 -> engaged.(qa.(i)) <- false
    | 2 ->
        engaged.(qa.(i)) <- false;
        engaged.(qb.(i)) <- false
    | _ -> ());
    ready_succs i
  in
  let issue_round () =
    let again = ref true in
    while !again do
      again := false;
      let w = ref 0 in
      for r = 0 to !nready - 1 do
        if status.(ready.(r)) = 1 then begin
          ready.(!w) <- ready.(r);
          incr w
        end
      done;
      nready := !w;
      for r = 1 to !nready - 1 do
        let id = ready.(r) in
        let p = prio.(id) in
        let j = ref r in
        while
          !j > 0 && (prio.(ready.(!j - 1)) < p || (prio.(ready.(!j - 1)) = p && ready.(!j - 1) > id))
        do
          ready.(!j) <- ready.(!j - 1);
          decr j
        done;
        ready.(!j) <- id
      done;
      for r = 0 to !nready - 1 do
        let i = ready.(r) in
        match kind.(i) with
        | 0 ->
            status.(i) <- 2;
            ready_succs i;
            again := true
        | 1 ->
            let q = qa.(i) in
            if not engaged.(q) then begin
              status.(i) <- 2;
              engaged.(q) <- true;
              let finish = !clock +. tm.Router.Timing.t_gate1 in
              if finish > !latency then latency := finish;
              heap_push finish i;
              again := true
            end
        | _ ->
            let c = qa.(i) and tgt = qb.(i) in
            if not (engaged.(c) || engaged.(tgt)) then begin
              status.(i) <- 2;
              engaged.(c) <- true;
              engaged.(tgt) <- true;
              let a = pos.(c) and b = pos.(tgt) in
              let arrive =
                if a = b then !clock
                else begin
                  occ.(a) <- occ.(a) - 1;
                  occ.(b) <- occ.(b) - 1;
                  let m = choose_meet occ a b in
                  occ.(m) <- occ.(m) + 2;
                  pos.(c) <- m;
                  pos.(tgt) <- m;
                  let scale = tm.Router.Timing.t_move *. stretch.(i) in
                  !clock
                  +. Float.max (Estimator.Distance.between dist a m) (Estimator.Distance.between dist b m)
                     *. scale
                end
              in
              let finish = arrive +. tm.Router.Timing.t_gate2 in
              if finish > !latency then latency := finish;
              heap_push finish i;
              again := true
            end
      done
    done
  in
  issue_round ();
  while !nheap > 0 do
    let time = heap_time.(1) in
    clock := time;
    while !nheap > 0 && heap_time.(1) <= time +. 1e-9 do
      complete (heap_pop ())
    done;
    issue_round ()
  done;
  !latency

(* The service benchmark's four fabrics, each extracted once with its
   distance tables, so every context on a fabric shares them. *)
let ingress_fabrics =
  lazy
    (List.map
       (fun lay ->
         match Fabric.Component.extract lay with
         | Error e -> Alcotest.failf "extract: %s" e
         | Ok comp ->
             let graph = Fabric.Graph.build comp in
             let turn_cost = Router.Timing.turn_cost_in_moves Config.default.Config.timing in
             (lay, (comp, graph), Estimator.Distance.build graph ~turn_cost))
       Fabric.Layout.
         [
           quale_45x85 ();
           make_grid ~width:45 ~height:27 ~pitch_x:8 ~pitch_y:6 ~margin:2 ~traps_per_channel:1 ();
           make_grid ~width:29 ~height:21 ~pitch_x:6 ~pitch_y:5 ~margin:2 ~traps_per_channel:1 ();
           linear ~traps:40 ();
         ])

(* A Table-1 circuit (program < 6) or a random Clifford program of the
   service benchmark's shape (6-19 qubits, 40-440 gates), on one of the
   four fabrics, estimated at four random center permutations.  Table-1
   circuits too large for a fabric's traps are skipped. *)
let prop_estimate_equals_reference =
  QCheck.Test.make ~count:200 ~name:"estimate = hand-rolled reference"
    QCheck.(triple (int_range 0 3) (int_range 0 11) small_nat)
    (fun (fabric, program, seed) ->
      let lay, prebuilt, distance = List.nth (Lazy.force ingress_fabrics) fabric in
      let rng = Ion_util.Rng.create seed in
      let p =
        if program < 6 then snd (List.nth (Circuits.Qecc.all ()) program)
        else
          let num_qubits = 6 + Ion_util.Rng.int rng 14 in
          Circuits.Library.random_clifford rng ~num_qubits ~gates:(40 + Ion_util.Rng.int rng 401)
      in
      match Mapper.create ~fabric:lay ~prebuilt ~distance p with
      | Error _ -> QCheck.assume_fail ()
      | Ok ctx ->
          let model = Mapper.estimator_model ctx and comp = Mapper.component ctx in
          let num_qubits = Qasm.Program.num_qubits p in
          List.for_all
            (fun _ ->
              let placement = Placer.Center.place_permuted rng comp ~num_qubits in
              let got = Estimator.Model.estimate model placement
              and want = reference_estimate ctx placement in
              Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want)
              || QCheck.Test.fail_reportf "placement [%s]: estimate %h, reference %h"
                   (String.concat ";" (Array.to_list (Array.map string_of_int placement)))
                   got want)
            [ 1; 2; 3; 4 ])

(* ------------------------------------------------------------- accuracy *)

let test_mean_relative_error_within_bound () =
  let rows = Experiments.estimator_accuracy () in
  check_int "all Table-1 circuits measured" (List.length (Circuits.Qecc.all ())) (List.length rows);
  let mean =
    List.fold_left (fun acc (_, _, _, rel) -> acc +. Float.abs rel) 0.0 rows
    /. float_of_int (List.length rows)
  in
  if mean > 0.15 then
    Alcotest.failf "mean relative error %.1f%% exceeds the 15%% bound" (100.0 *. mean)

let spearman xs ys =
  let n = Array.length xs in
  let ranks v =
    let idx = Array.init n Fun.id in
    Array.sort (fun a b -> compare v.(a) v.(b)) idx;
    let r = Array.make n 0.0 in
    let i = ref 0 in
    while !i < n do
      let j = ref !i in
      while !j + 1 < n && v.(idx.(!j + 1)) = v.(idx.(!i)) do
        incr j
      done;
      let avg = float_of_int (!i + !j) /. 2.0 in
      for k = !i to !j do
        r.(idx.(k)) <- avg
      done;
      i := !j + 1
    done;
    r
  in
  let rx = ranks xs and ry = ranks ys in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
  let mx = mean rx and my = mean ry in
  let num = ref 0.0 and dx = ref 0.0 and dy = ref 0.0 in
  for i = 0 to n - 1 do
    num := !num +. ((rx.(i) -. mx) *. (ry.(i) -. my));
    dx := !dx +. ((rx.(i) -. mx) ** 2.0);
    dy := !dy +. ((ry.(i) -. my) ** 2.0)
  done;
  !num /. sqrt (!dx *. !dy)

let test_rank_correlation () =
  let ctx = ctx_of "[[9,1,3]]" in
  let pool = mc_pool ctx in
  let est = Array.map (Mapper.estimate ctx) pool in
  let meas = Array.map (measured ctx) pool in
  let rho = spearman est meas in
  if rho < 0.8 then
    Alcotest.failf "Spearman %.3f below 0.8 over the 25-candidate MC pool" rho

(* ---------------------------------------------------------- pre-screening *)

let solution_shape ctx (s : Mapper.solution) =
  let nq = Qasm.Program.num_qubits (Mapper.program ctx) in
  check_int "initial placement arity" nq (Array.length s.Mapper.initial_placement);
  check_int "final placement arity" nq (Array.length s.Mapper.final_placement);
  check_bool "latency positive" true (s.Mapper.latency > 0.0);
  check_bool "has a trace" true (s.Mapper.trace <> []);
  check_bool "evals within runs" true
    (s.Mapper.engine_evals >= 1 && s.Mapper.engine_evals <= s.Mapper.placement_runs)

let test_prescreened_solution_contract () =
  let ctx = ctx_of "[[9,1,3]]" in
  let center =
    match Mapper.map Center ctx with Ok s -> s | Error e -> Alcotest.fail (Mapper.error_to_string e)
  in
  List.iter
    (fun (label, sol) ->
      match sol with
      | Error e -> Alcotest.failf "%s: %s" label (Mapper.error_to_string e)
      | Ok s ->
          solution_shape ctx s;
          check_bool (label ^ " no worse than center") true
            (s.Mapper.latency <= center.Mapper.latency))
    [
      ("mc", map_at ~m:25 ~prescreen:5 Monte_carlo ctx);
      ("mvfb", map_at ~m:5 ~prescreen:2 Mvfb ctx);
      ("sa", map_at ~m:10 ~prescreen:5 Annealing ctx);
    ]

let test_prescreen_cuts_evaluations () =
  (* acceptance criterion: runs=25, k=5 -> >= 5x fewer engine evaluations,
     best latency within 5% of the exhaustive search ([[9,1,3]]'s 25 draws
     are distinct, so the plain search routes all 25) *)
  let ctx = ctx_of "[[9,1,3]]" in
  let plain =
    match map_at ~m:25 Monte_carlo ctx with
    | Ok s -> s
    | Error e -> Alcotest.fail (Mapper.error_to_string e)
  in
  let pre =
    match map_at ~m:25 ~prescreen:5 Monte_carlo ctx with
    | Ok s -> s
    | Error e -> Alcotest.fail (Mapper.error_to_string e)
  in
  check_int "plain routes every candidate" 25 plain.Mapper.engine_evals;
  check_int "prescreened routes k candidates" 5 pre.Mapper.engine_evals;
  check_bool "5x fewer engine evaluations" true
    (plain.Mapper.engine_evals >= 5 * pre.Mapper.engine_evals);
  check_bool "within 5% of the exhaustive best" true
    (pre.Mapper.latency <= 1.05 *. plain.Mapper.latency)

let test_prescreen_jobs_bit_identical () =
  let ctx = ctx_of "[[7,1,3]]" in
  let run jobs =
    match map_at ~m:12 ~jobs ~prescreen:4 Monte_carlo ctx with
    | Ok s -> (s.Mapper.latency, s.Mapper.initial_placement, s.Mapper.run_latencies)
    | Error e -> Alcotest.fail (Mapper.error_to_string e)
  in
  check_bool "jobs=1 equals jobs=4" true (run 1 = run 4)

let test_config_prescreen_env_and_guard () =
  (match Config.validate (Config.with_prescreen (Some 0) Config.default) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "prescreen_k=0 accepted by validate");
  check_bool "default off" true (Config.default.Config.prescreen_k = None)

let () =
  Alcotest.run "estimator"
    [
      ( "distance",
        [
          Alcotest.test_case "tables are sane" `Quick test_distance_tables;
          QCheck_alcotest.to_alcotest prop_lazy_equals_eager;
          Alcotest.test_case "two domains fill one table set" `Quick test_concurrent_fill;
          Alcotest.test_case "one table per trap across the estimator and the engine" `Quick
            test_one_table_per_trap;
          Alcotest.test_case "disconnected meet is symmetric" `Quick test_disconnected_meet;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "estimate is deterministic" `Quick test_estimate_deterministic;
          Alcotest.test_case "Domain_pool fan-out is bit-identical" `Quick
            test_estimate_domain_pool_bit_identical;
          Alcotest.test_case "bad placements rejected" `Quick test_estimate_rejects_bad_placements;
          Alcotest.test_case "estimate pins on the Table-1 circuits" `Quick test_estimate_pins;
          QCheck_alcotest.to_alcotest prop_estimate_equals_reference;
        ] );
      ( "accuracy",
        [
          Alcotest.test_case "mean relative error <= 15%" `Slow test_mean_relative_error_within_bound;
          Alcotest.test_case "Spearman >= 0.8 on a 25-candidate MC pool" `Slow test_rank_correlation;
        ] );
      ( "prescreen",
        [
          Alcotest.test_case "solution contract and never worse than center" `Slow
            test_prescreened_solution_contract;
          Alcotest.test_case "5x fewer evaluations within 5%" `Slow test_prescreen_cuts_evaluations;
          Alcotest.test_case "bit-identical at any job count" `Quick test_prescreen_jobs_bit_identical;
          Alcotest.test_case "config guard and default" `Quick test_config_prescreen_env_and_guard;
        ] );
    ]
