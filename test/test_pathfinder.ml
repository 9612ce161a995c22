(* Tests for the PathFinder negotiated router (reference [3]): convergence on
   contested fabrics, capacity respect at the fixpoint, equivalence with
   plain Dijkstra for a single net, and with a full-reroute reference model
   of the legacy schedule on waves that converge in one iteration. *)

open Fabric
open Router

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let comp_of lay = match Component.extract lay with Ok c -> c | Error e -> Alcotest.failf "extract: %s" e

let tile () = comp_of (Layout.small_tile ())
let quale () = comp_of (Layout.quale_45x85 ())

(* capacity 1 channels and 2 junctions on [g]'s fabric; 2 everywhere *)
let cap1 g r = if Component.is_segment (Graph.component g) r then 1 else 2
let cap2 _ = 2

(* the resource id an edge kind's weight depends on, -1 for turns and taps *)
let resource_of_kind = function Graph.Chan r | Graph.Junc r -> r | Graph.Turn _ | Graph.Tap _ -> -1

let test_single_net_matches_dijkstra () =
  let comp = tile () in
  let g = Graph.build comp in
  let src = Graph.trap_node g 0 and dst = Graph.trap_node g 3 in
  match Pathfinder.route_all g ~capacity:cap2 [ { Pathfinder.net_id = 0; src; dst } ] with
  | Error e -> Alcotest.fail (Pathfinder.string_of_error e)
  | Ok o -> (
      check_int "one iteration" 1 o.Pathfinder.iterations;
      check_int "no overuse" 0 o.Pathfinder.overused;
      match (o.Pathfinder.routes, Dijkstra.shortest_path g ~weights:(Lower_bound.base_weights g ~turn_cost:10.0) ~src ~dst) with
      | [ (0, p) ], Some d -> check_bool "same cost" true (Float.abs (Path.cost p -. d.Dijkstra.cost) < 1e-9)
      | _ -> Alcotest.fail "route shape")

let node_at g pos orientation =
  let found = ref None in
  for n = 0 to Graph.num_nodes g - 1 do
    if Ion_util.Coord.equal (Graph.node_pos g n) pos && Graph.node_orientation g n = orientation then
      found := Some n
  done;
  match !found with Some n -> n | None -> Alcotest.fail "node not found"

let test_contested_nets_negotiate_apart () =
  (* two nets with identical endpoints across a 3x3-junction tile: at
     channel capacity 1 they cannot share the straight top-row path, so
     negotiation must push one onto a detour *)
  let lay =
    Layout.make_grid ~width:17 ~height:13 ~pitch_x:6 ~pitch_y:5 ~margin:2 ~traps_per_channel:0 ()
  in
  let comp = comp_of lay in
  let g = Graph.build comp in
  let src = node_at g (Ion_util.Coord.make 2 2) (Some Cell.Horizontal) in
  let dst = node_at g (Ion_util.Coord.make 14 2) (Some Cell.Horizontal) in
  let nets = [ { Pathfinder.net_id = 0; src; dst }; { Pathfinder.net_id = 1; src; dst } ] in
  match Pathfinder.route_all g ~capacity:(cap1 g) nets with
  | Error e -> Alcotest.fail (Pathfinder.string_of_error e)
  | Ok o ->
      check_int "converged" 0 o.Pathfinder.overused;
      check_int "max overuse 0" 0 (Pathfinder.max_overuse g ~capacity:(cap1 g) o.Pathfinder.routes);
      (* the two routes must differ: one straight, one detoured *)
      (match o.Pathfinder.routes with
      | [ (0, a); (1, b) ] ->
          let resources p = List.init (Path.num_resources p) (Path.resource p) in
          check_bool "disjoint channel usage" true
            (List.for_all
               (fun r ->
                 (not (Component.is_segment comp r)) || not (List.mem r (resources b)))
               (resources a))
      | _ -> Alcotest.fail "route shape");
      ()

let test_wave_on_quale_capacity2 () =
  (* a wave of 6 simultaneous nets across the 45x85 fabric at the paper's
     channel capacity *)
  let comp = quale () in
  let g = Graph.build comp in
  let traps = Array.length (Component.traps comp) in
  let nets =
    List.init 6 (fun i ->
        { Pathfinder.net_id = i; src = Graph.trap_node g (i * 7); dst = Graph.trap_node g (traps - 1 - (i * 11)) })
  in
  match Pathfinder.route_all g ~capacity:cap2 nets with
  | Error e -> Alcotest.fail (Pathfinder.string_of_error e)
  | Ok o ->
      check_int "converged" 0 o.Pathfinder.overused;
      check_int "all nets routed" 6 (List.length o.Pathfinder.routes)

let test_unroutable_reported () =
  let lay = match Layout.parse "J-JT\n\nJ-JT\n" with Ok l -> l | Error e -> Alcotest.fail e in
  let comp = comp_of lay in
  let g = Graph.build comp in
  let nets = [ { Pathfinder.net_id = 0; src = Graph.trap_node g 0; dst = Graph.trap_node g 1 } ] in
  match Pathfinder.route_all g ~capacity:cap2 nets with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "disconnected net accepted"

(* ------------------------------------------------- dirty-net schedule *)

let same_routes a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ida, pa) (idb, pb) -> ida = idb && Path.equal pa pb)
       a b

(* The legacy schedule of reference [3], kept here as a reference model:
   every iteration rips up and re-routes every net, in input order; [None]
   when some net has no route.  Costs and the A* search are those of
   [Pathfinder] at its default parameters, so where both schedules converge
   in one iteration they must agree route for route and search for search
   (one search per net). *)
let legacy_route_all g ~capacity nets =
  let turn_cost = 10.0 and present_factor = 0.5 and history_increment = 1.0 in
  let cache = Route_cache.create () in
  Route_cache.for_graph cache g;
  let ws = Workspace.create () in
  let get tbl r = Option.value ~default:0 (Hashtbl.find_opt tbl r) in
  let occupancy = Hashtbl.create 64 and history = Hashtbl.create 64 in
  let routes = Hashtbl.create 16 in
  let bump path d =
    Path.iter_resources
      (fun r -> Hashtbl.replace occupancy r (get occupancy r + d))
      path
  in
  let iterations = ref 0 and searches = ref 0 in
  let weight (kind : Graph.edge_kind) =
    let base = match kind with Graph.Turn _ -> turn_cost | _ -> 1.0 in
    let r = resource_of_kind kind in
    if r < 0 then base
    else begin
      let over = max 0 (get occupancy r + 1 - capacity r) in
      let p_fac = 1.0 +. (present_factor *. float_of_int !iterations) in
      let h = Option.value ~default:0.0 (Hashtbl.find_opt history r) in
      (base +. h) *. (1.0 +. (float_of_int over *. p_fac))
    end
  in
  let overused () = Hashtbl.fold (fun r n acc -> if n > capacity r then r :: acc else acc) occupancy [] in
  let rec loop () =
    incr iterations;
    List.iter
      (fun net ->
        Option.iter (fun p -> bump p (-1)) (Hashtbl.find_opt routes net.Pathfinder.net_id);
        incr searches;
        let lb = Route_cache.lower_bound cache g ~turn_cost ~dst:net.Pathfinder.dst in
        let weights = Array.init (Graph.num_edges g) (fun i -> weight (Graph.succ_kind g i)) in
        Dijkstra.run_into ~heuristic:lb ws g ~weights ~src:net.Pathfinder.src
          ~dst:net.Pathfinder.dst;
        match Path.of_workspace ws g ~src:net.Pathfinder.src ~dst:net.Pathfinder.dst with
        | None -> raise Exit
        | Some p ->
            Hashtbl.replace routes net.Pathfinder.net_id p;
            bump p 1)
      nets;
    match overused () with
    | [] -> ()
    | over when !iterations < 30 ->
        List.iter
          (fun r ->
            Hashtbl.replace history r
              (history_increment +. Option.value ~default:0.0 (Hashtbl.find_opt history r)))
          over;
        loop ()
    | _ -> ()
  in
  match loop () with
  | exception Exit -> None
  | () ->
      Some
        ( List.map (fun net -> (net.Pathfinder.net_id, Hashtbl.find routes net.Pathfinder.net_id)) nets,
          !iterations,
          !searches )

let test_incremental_matches_legacy_uncongested () =
  (* plenty of capacity: both schedules converge in one iteration, so the
     outcomes must be identical, search for search *)
  let comp = quale () in
  let g = Graph.build comp in
  let traps = Array.length (Component.traps comp) in
  let nets =
    List.init 6 (fun i ->
        { Pathfinder.net_id = i; src = Graph.trap_node g (i * 7); dst = Graph.trap_node g (traps - 1 - (i * 11)) })
  in
  let inc =
    match Pathfinder.route_all g ~capacity:cap2 nets with
    | Ok o -> o
    | Error e -> Alcotest.fail (Pathfinder.string_of_error e)
  in
  let routes, iterations, searches =
    match legacy_route_all g ~capacity:cap2 nets with
    | Some l -> l
    | None -> Alcotest.fail "legacy: unroutable net"
  in
  check_int "incremental converges" 0 inc.Pathfinder.overused;
  check_int "legacy fixpoint within capacity" 0 (Pathfinder.max_overuse g ~capacity:cap2 routes);
  check_bool "identical routes" true (same_routes inc.Pathfinder.routes routes);
  check_int "same iterations" iterations inc.Pathfinder.iterations;
  check_int "same searches" searches inc.Pathfinder.searches

(* After iteration 1 only dirty nets are re-searched, so a negotiation that
   needs [iterations] rounds over [nets] nets must run fewer searches than
   the [nets * iterations] a full reroute of every net would.  Every net in
   a round's worklist is searched once, so the pinned counts check the
   dirty-net worklist itself: the schedule is deterministic. *)
let check_fewer_searches label g ~capacity ~searches ~iterations nets =
  let o =
    match Pathfinder.route_all g ~capacity nets with
    | Ok o -> o
    | Error e -> Alcotest.fail (Pathfinder.string_of_error e)
  in
  check_int (label ^ ": converges") 0 o.Pathfinder.overused;
  check_int (label ^ ": fixpoint within capacity") 0
    (Pathfinder.max_overuse g ~capacity o.Pathfinder.routes);
  let full = List.length nets * o.Pathfinder.iterations in
  check_bool
    (Printf.sprintf "%s: fewer searches than a full reroute (%d < %d)" label o.Pathfinder.searches
       full)
    true
    (o.Pathfinder.searches < full);
  check_int (label ^ ": iterations") iterations o.Pathfinder.iterations;
  check_int (label ^ ": searches") searches o.Pathfinder.searches

let test_incremental_fewer_searches_when_congested () =
  (* two nets contest the top row at channel capacity 1 while a third runs
     disjointly along the bottom row: negotiation iterates, and the rounds
     after the first leave the clean bottom net alone *)
  let lay =
    Layout.make_grid ~width:17 ~height:13 ~pitch_x:6 ~pitch_y:5 ~margin:2 ~traps_per_channel:0 ()
  in
  let g = Graph.build (comp_of lay) in
  let top_src = node_at g (Ion_util.Coord.make 2 2) (Some Cell.Horizontal) in
  let top_dst = node_at g (Ion_util.Coord.make 14 2) (Some Cell.Horizontal) in
  let bot_src = node_at g (Ion_util.Coord.make 2 12) (Some Cell.Horizontal) in
  let bot_dst = node_at g (Ion_util.Coord.make 14 12) (Some Cell.Horizontal) in
  check_fewer_searches "tile" g ~capacity:(cap1 g) ~searches:7 ~iterations:3
    [
      { Pathfinder.net_id = 0; src = top_src; dst = top_dst };
      { Pathfinder.net_id = 1; src = top_src; dst = top_dst };
      { Pathfinder.net_id = 2; src = bot_src; dst = bot_dst };
    ];
  (* wave10: ten crossing trap-to-trap nets on the 45x85 fabric at the
     paper's capacity 2 negotiate for several iterations *)
  let comp = quale () in
  let g = Graph.build comp in
  let traps = Array.length (Component.traps comp) in
  check_fewer_searches "wave10" g ~capacity:cap2 ~searches:47 ~iterations:8
    (List.init 10 (fun i ->
         {
           Pathfinder.net_id = i;
           src = Graph.trap_node g (i * 5 mod traps);
           dst = Graph.trap_node g (traps - 1 - (i * 9 mod traps));
         }))

let test_stores_no_path () =
  (* a wave routed on a caller-owned cache sweeps lower-bound tables in its
     store, never stores a path: the engine is the only searcher that
     stores paths *)
  let g = Graph.build (quale ()) in
  let traps = Array.length (Component.traps (Graph.component g)) in
  let nets =
    List.init 6 (fun i ->
        { Pathfinder.net_id = i; src = Graph.trap_node g (i * 7); dst = Graph.trap_node g (traps - 1 - (i * 11)) })
  in
  let cache = Route_cache.create () in
  (match Pathfinder.route_all g ~cache ~capacity:(cap1 g) nets with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Pathfinder.string_of_error e));
  let snap = Route_cache.freeze cache in
  check_int "no path stored" 0 (Route_cache.snapshot_paths snap);
  check_bool "lower-bound tables swept" true (Route_cache.bound_builds cache > 0)

(* property: a warm cache is invisible.  A wave routed a second time on the
   cache its first routing filled (lower-bound tables only) returns the same
   routes in the same number of iterations with the same number of
   searches.  Capacities 1 and 2 make many waves negotiate over several
   iterations. *)
let quale_graph = lazy (Graph.build (quale ()))

let prop_warm_cache_equals_fresh =
  QCheck.Test.make ~name:"warm cache = fresh cache" ~count:100
    QCheck.(pair bool (list_of_size Gen.(2 -- 10) (pair (int_bound 1000) (int_bound 1000))))
    (fun (tight, pairs) ->
      let g = Lazy.force quale_graph in
      let capacity = if tight then cap1 g else cap2 in
      let traps = Array.length (Component.traps (Graph.component g)) in
      let nets =
        List.mapi
          (fun i (a, b) ->
            { Pathfinder.net_id = i; src = Graph.trap_node g (a mod traps); dst = Graph.trap_node g (b mod traps) })
          pairs
      in
      let cache = Route_cache.create () in
      let run () = Pathfinder.route_all g ~cache ~capacity nets in
      let fresh = run () in
      let warm = run () in
      match (fresh, warm) with
      | Error _, Error _ -> true
      | Ok f, Ok w ->
          same_routes f.Pathfinder.routes w.Pathfinder.routes
          && f.Pathfinder.iterations = w.Pathfinder.iterations
          && f.Pathfinder.overused = w.Pathfinder.overused
          && w.Pathfinder.searches = f.Pathfinder.searches
      | _ -> false)

(* property: incremental and legacy schedules agree exactly whenever the
   wave converges without negotiation (one iteration): the same routes, and
   every net searched once on both sides. *)
let prop_incremental_equals_legacy_when_clean =
  QCheck.Test.make ~name:"incremental = legacy on one-iteration waves" ~count:25
    QCheck.(list_of_size Gen.(2 -- 8) (pair (int_bound 1000) (int_bound 1000)))
    (fun pairs ->
      let g = Lazy.force quale_graph in
      let traps = Array.length (Component.traps (Graph.component g)) in
      let nets =
        List.mapi
          (fun i (a, b) ->
            { Pathfinder.net_id = i; src = Graph.trap_node g (a mod traps); dst = Graph.trap_node g (b mod traps) })
          pairs
      in
      match (Pathfinder.route_all g ~capacity:cap2 nets, legacy_route_all g ~capacity:cap2 nets) with
      | Error _, None -> true
      | Ok inc, Some (routes, iterations, searches) ->
          (* multi-iteration negotiations may land on different equal-quality
             fixpoints; single-iteration waves must agree exactly *)
          let n = List.length nets in
          iterations > 1
          || same_routes inc.Pathfinder.routes routes
             && searches = n
             && inc.Pathfinder.searches = n
      | _ -> false)

(* property: the live negotiation array.  Random waves at capacities 1
   and 2 are routed round after round through [Pathfinder]'s state (every
   net ripped up and re-searched on the live array, then history added);
   after every placement, rip-up, history update and iteration, every
   entry of [Pathfinder.weights] must equal the negotiation cost as a
   per-kind function of a test-local model of occupancy, history and
   round. *)
let prop_live_negotiation_weights =
  QCheck.Test.make ~name:"live negotiation weights = the negotiation formula" ~count:30
    QCheck.(pair bool (list_of_size Gen.(2 -- 8) (pair (int_bound 1000) (int_bound 1000))))
    (fun (tight, pairs) ->
      let g = Lazy.force quale_graph in
      let capacity = if tight then cap1 g else cap2 in
      let turn_cost = 10.0 in
      let traps = Array.length (Component.traps (Graph.component g)) in
      let nets =
        List.mapi
          (fun i (a, b) ->
            { Pathfinder.net_id = i; src = Graph.trap_node g (a mod traps); dst = Graph.trap_node g (b mod traps) })
          pairs
      in
      let st = Pathfinder.create g ~turn_cost ~capacity in
      let occupancy = Hashtbl.create 64 and history = Hashtbl.create 64 and iteration = ref 0 in
      let get tbl r d = Option.value ~default:d (Hashtbl.find_opt tbl r) in
      let weight (kind : Graph.edge_kind) =
        let base = match kind with Graph.Turn _ -> turn_cost | _ -> 1.0 in
        let r = resource_of_kind kind in
        if r < 0 then base
        else begin
          let over = max 0 (get occupancy r 0 + 1 - capacity r) in
          let p_fac = 1.0 +. (0.5 *. float_of_int !iteration) in
          (base +. get history r 0.0) *. (1.0 +. (float_of_int over *. p_fac))
        end
      in
      let ok = ref true in
      let check () =
        let live = Pathfinder.weights st in
        for i = 0 to Graph.num_edges g - 1 do
          if not (Float.equal live.(i) (weight (Graph.succ_kind g i))) then ok := false
        done
      in
      let bump p d =
        Path.iter_resources
          (fun r -> Hashtbl.replace occupancy r (get occupancy r 0 + d))
          p
      in
      let routes = Hashtbl.create 16 and ws = Workspace.create () in
      check ();
      for _ = 1 to 4 do
        Pathfinder.next_iteration st;
        incr iteration;
        check ();
        List.iter
          (fun { Pathfinder.net_id; src; dst } ->
            Option.iter
              (fun p ->
                Pathfinder.rip st net_id;
                bump p (-1);
                check ())
              (Hashtbl.find_opt routes net_id);
            Dijkstra.run_into ws g ~weights:(Pathfinder.weights st) ~src ~dst;
            Option.iter
              (fun p ->
                Pathfinder.place st net_id p;
                bump p 1;
                Hashtbl.replace routes net_id p;
                check ())
              (Path.of_workspace ws g ~src ~dst))
          nets;
        Pathfinder.add_history st;
        Hashtbl.iter
          (fun r n -> if n > capacity r then Hashtbl.replace history r (get history r 0.0 +. 1.0))
          occupancy;
        check ()
      done;
      !ok)

let test_parameter_guards () =
  let comp = tile () in
  let g = Graph.build comp in
  List.iter
    (fun turn_cost ->
      match Pathfinder.route_all g ~turn_cost ~capacity:cap2 [] with
      | Error (Pathfinder.Bad_parameters _) -> ()
      | Error e -> Alcotest.fail (Pathfinder.string_of_error e)
      | Ok _ -> Alcotest.failf "turn cost %g accepted" turn_cost)
    [ -1.0; Float.nan ]

(* property: on random net sets over the big fabric, a converged outcome
   never exceeds capacity *)
let prop_fixpoint_within_capacity =
  QCheck.Test.make ~name:"converged pathfinder routes respect capacity" ~count:25
    QCheck.(list_of_size Gen.(2 -- 8) (pair (int_bound 1000) (int_bound 1000)))
    (fun pairs ->
      let comp = quale () in
      let g = Graph.build comp in
      let traps = Array.length (Component.traps comp) in
      let nets =
        List.mapi
          (fun i (a, b) ->
            { Pathfinder.net_id = i; src = Graph.trap_node g (a mod traps); dst = Graph.trap_node g (b mod traps) })
          pairs
      in
      match Pathfinder.route_all g ~capacity:cap2 nets with
      | Error _ -> false
      | Ok o ->
          o.Pathfinder.overused > 0
          || Pathfinder.max_overuse g ~capacity:cap2 o.Pathfinder.routes = 0)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "pathfinder"
    [
      ( "pathfinder",
        [
          Alcotest.test_case "single net = dijkstra" `Quick test_single_net_matches_dijkstra;
          Alcotest.test_case "contested nets negotiate" `Quick test_contested_nets_negotiate_apart;
          Alcotest.test_case "wave on 45x85" `Quick test_wave_on_quale_capacity2;
          Alcotest.test_case "unroutable reported" `Quick test_unroutable_reported;
          Alcotest.test_case "incremental = legacy uncongested" `Quick
            test_incremental_matches_legacy_uncongested;
          Alcotest.test_case "incremental saves searches" `Quick
            test_incremental_fewer_searches_when_congested;
          Alcotest.test_case "PathFinder stores no path" `Quick test_stores_no_path;
          Alcotest.test_case "guards" `Quick test_parameter_guards;
        ]
        @ qsuite
             [
               prop_fixpoint_within_capacity;
               prop_incremental_equals_legacy_when_clean;
               prop_warm_cache_equals_fresh;
               prop_live_negotiation_weights;
             ] );
    ]
