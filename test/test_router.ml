(* Tests for the router: timing model, congestion accounting (Eq. 2),
   Dijkstra on the turn-aware graph (the Figure 5 experiment), typed paths
   and micro-command lowering. *)

module Coord = Ion_util.Coord
open Fabric
open Router

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let xy = Coord.make

let tile () =
  let l = Layout.small_tile () in
  match Component.extract l with Ok c -> c | Error e -> Alcotest.failf "extract: %s" e

let quale () =
  match Component.extract (Layout.quale_45x85 ()) with
  | Ok c -> c
  | Error e -> Alcotest.failf "extract: %s" e

let free_weight tm cong kind = Congestion.weight cong ~turn_cost:(Timing.turn_cost_in_moves tm) kind

(* find the graph node at a position with a given orientation *)
let node_at g pos orientation =
  let found = ref None in
  for n = 0 to Graph.num_nodes g - 1 do
    if Coord.equal (Graph.node_pos g n) pos && Graph.node_orientation g n = orientation then
      found := Some n
  done;
  match !found with Some n -> n | None -> Alcotest.failf "no node at %s" (Coord.to_string pos)

(* a path's distinct resources, in first-crossing order *)
let resources p = List.init (Path.num_resources p) (Path.resource p)

(* --------------------------------------------------------------- Timing *)

let test_timing_paper () =
  let tm = Timing.paper in
  check_float "move" 1.0 tm.Timing.t_move;
  check_float "turn" 10.0 tm.Timing.t_turn;
  check_float "turn cost" 10.0 (Timing.turn_cost_in_moves tm);
  check_float "decl free" 0.0 (Timing.gate_delay tm (Qasm.Instr.Qubit_decl { qubit = 0; init = None }));
  check_float "1q" 10.0 (Timing.gate_delay tm (Qasm.Instr.Gate1 (Qasm.Gate.H, 0)));
  check_float "2q" 100.0 (Timing.gate_delay tm (Qasm.Instr.Gate2 (Qasm.Gate.CX, 0, 1)))

let test_timing_guards () =
  match Timing.make ~t_move:0.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero t_move accepted"

(* ------------------------------------------------------------- Resource *)

let test_resource_of_edge () =
  check_bool "chan" true (Resource.of_edge (Graph.Chan 3) = Some (Resource.segment 3));
  check_bool "junc" true (Resource.of_edge (Graph.Junc 1) = Some (Resource.junction 1));
  check_bool "turn free" true (Resource.of_edge (Graph.Turn 1) = None);
  check_bool "tap free" true (Resource.of_edge (Graph.Tap 0) = None)

(* Resources are packed immediates (PR 10): every resource of a fabric must
   survive the to_int/of_int round trip with view/is_segment/id agreeing,
   and the allocation-free [pack_of_edge] must agree with [of_edge] on
   every edge kind.  Checked on the full 45x85 fabric and on a
   fault-degraded variant whose id space has holes. *)
let roundtrip_component label comp =
  let check_res r =
    let packed = Resource.to_int r in
    check_bool (label ^ ": packed non-negative") true (packed >= 0);
    check_bool (label ^ ": packed is not the sentinel") true (packed <> Resource.none);
    check_bool (label ^ ": of_int inverts to_int") true (Resource.equal (Resource.of_int packed) r);
    match Resource.view r with
    | Resource.Segment s ->
        check_bool (label ^ ": is_segment") true (Resource.is_segment r);
        check_int (label ^ ": segment id") s (Resource.id r)
    | Resource.Junction j ->
        check_bool (label ^ ": is_segment") false (Resource.is_segment r);
        check_int (label ^ ": junction id") j (Resource.id r)
  in
  Array.iteri
    (fun s _ ->
      check_res (Resource.segment s);
      check_int (label ^ ": chan pack")
        (Resource.to_int (Resource.segment s))
        (Resource.pack_of_edge (Graph.Chan s)))
    (Component.segments comp);
  Array.iteri
    (fun j _ ->
      check_res (Resource.junction j);
      check_int (label ^ ": junc pack")
        (Resource.to_int (Resource.junction j))
        (Resource.pack_of_edge (Graph.Junc j)))
    (Component.junctions comp);
  check_int (label ^ ": turn free") Resource.none (Resource.pack_of_edge (Graph.Turn 0));
  check_int (label ^ ": tap free") Resource.none (Resource.pack_of_edge (Graph.Tap 0))

let degraded_quale () =
  let layout = Layout.quale_45x85 () in
  let faults = Fault.sample ~seed:2012 ~index:0 ~n:8 (quale ()) in
  match Fault.apply layout faults with
  | Error e -> Alcotest.failf "fault apply: %s" e
  | Ok a -> (
      match Component.extract a.Fault.layout with
      | Ok c -> c
      | Error e -> Alcotest.failf "extract degraded: %s" e)

let test_resource_pack_roundtrip () =
  roundtrip_component "quale" (quale ());
  roundtrip_component "degraded" (degraded_quale ())

(* ----------------------------------------------------------- Congestion *)

let test_congestion_lifecycle () =
  let c = tile () in
  let cong = Congestion.create c ~channel_capacity:2 ~junction_capacity:2 in
  let r = Resource.segment 0 in
  check_int "zero users" 0 (Congestion.users cong r);
  check_bool "free" true (Congestion.is_free cong r);
  Congestion.acquire cong r;
  check_int "one user" 1 (Congestion.users cong r);
  Congestion.acquire cong r;
  check_bool "saturated" false (Congestion.is_free cong r);
  (match Congestion.acquire cong r with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "over-capacity acquire accepted");
  Congestion.release cong r;
  Congestion.release cong r;
  check_int "drained" 0 (Congestion.users cong r);
  match Congestion.release cong r with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "release of empty resource accepted"

let test_congestion_weights () =
  let c = tile () in
  let cong = Congestion.create c ~channel_capacity:2 ~junction_capacity:2 in
  check_float "empty chan" 1.0 (Congestion.weight cong ~turn_cost:10.0 (Graph.Chan 0));
  Congestion.acquire cong (Resource.segment 0);
  check_float "one user chan" 2.0 (Congestion.weight cong ~turn_cost:10.0 (Graph.Chan 0));
  Congestion.acquire cong (Resource.segment 0);
  check_bool "full chan infinite" true
    (Congestion.weight cong ~turn_cost:10.0 (Graph.Chan 0) = Float.infinity);
  check_float "junction" 1.0 (Congestion.weight cong ~turn_cost:10.0 (Graph.Junc 0));
  check_float "turn" 10.0 (Congestion.weight cong ~turn_cost:10.0 (Graph.Turn 0));
  check_float "tap" 1.0 (Congestion.weight cong ~turn_cost:10.0 (Graph.Tap 0));
  check_int "in flight" 2 (Congestion.total_in_flight cong)

let test_congestion_capacity_one () =
  (* QUALE mode: capacity-1 channels saturate after a single user *)
  let c = tile () in
  let cong = Congestion.create c ~channel_capacity:1 ~junction_capacity:2 in
  Congestion.acquire cong (Resource.segment 0);
  check_bool "saturated at 1" true
    (Congestion.weight cong ~turn_cost:0.0 (Graph.Chan 0) = Float.infinity)

(* ------------------------------------------------------------- Dijkstra *)

let test_dijkstra_self () =
  let g = Graph.build (tile ()) in
  match Dijkstra.shortest_path g ~weight:(fun _ -> 1.0) ~src:0 ~dst:0 with
  | Some { cost; edges } ->
      check_float "zero cost" 0.0 cost;
      check_int "no edges" 0 (List.length edges)
  | None -> Alcotest.fail "self path not found"

let test_dijkstra_blocked () =
  let g = Graph.build (tile ()) in
  let src = Graph.trap_node g 0 and dst = Graph.trap_node g 3 in
  match Dijkstra.shortest_path g ~weight:(fun _ -> Float.infinity) ~src ~dst with
  | None -> ()
  | Some _ -> Alcotest.fail "path through infinite weights"

let test_dijkstra_negative_rejected () =
  let g = Graph.build (tile ()) in
  let src = Graph.trap_node g 0 and dst = Graph.trap_node g 3 in
  match Dijkstra.shortest_path g ~weight:(fun _ -> -1.0) ~src ~dst with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative weights accepted"

let test_dijkstra_short_edge_weights () =
  let g = Graph.build (tile ()) in
  let src = Graph.trap_node g 0 and dst = Graph.trap_node g 3 in
  let ws = Workspace.create () in
  List.iter
    (fun len ->
      match
        Dijkstra.run_into ~edge_weights:(Array.make len 1.0) ws g ~weight:(fun _ -> 1.0) ~src ~dst
      with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "edge_weights of length %d < %d accepted" len (Graph.num_edges g))
    [ 0; Graph.num_edges g - 1 ];
  (* an exactly sized array is accepted *)
  Dijkstra.run_into ~edge_weights:(Array.make (Graph.num_edges g) 1.0) ws g ~weight:(fun _ -> 1.0) ~src ~dst;
  check_bool "exact length routes" true (Workspace.is_settled ws dst)

let test_dijkstra_trap_to_trap () =
  let comp = tile () in
  let g = Graph.build comp in
  let tm = Timing.paper in
  let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
  let src = Graph.trap_node g 0 and dst = Graph.trap_node g 3 in
  match Dijkstra.shortest_path g ~weight:(free_weight tm cong) ~src ~dst with
  | None -> Alcotest.fail "no route"
  | Some r ->
      let p = Path.of_result ~src ~dst r in
      (* (5,1) -> (5,8): 13 cell steps and 2 turns on the small tile *)
      check_int "moves" 13 (Path.moves p);
      check_int "turns" 2 (Path.turns p);
      check_float "cost" 33.0 (Path.cost p);
      check_float "duration" 33.0 (Path.duration tm p)

let test_dijkstra_distances () =
  let comp = tile () in
  let g = Graph.build comp in
  let dist = Dijkstra.distances g ~weight:(fun _ -> 1.0) ~src:(Graph.trap_node g 0) in
  check_float "self" 0.0 dist.(Graph.trap_node g 0);
  check_bool "all traps reachable" true
    (Array.for_all (fun tn -> dist.(tn) < Float.infinity)
       (Array.map (fun (tr : Component.trap) -> Graph.trap_node g tr.Component.tid) (Component.traps comp)))

(* Figure 5: among equal-Manhattan corner-to-corner routes, the turn-aware
   weights pick the single-turn path. *)
let test_fig5_turn_aware_single_turn () =
  let comp = tile () in
  let g = Graph.build comp in
  let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
  (* bottom-left junction (2,7) heading east, to top-right junction (8,2)
     arriving vertically *)
  let src = node_at g (xy 2 7) (Some Cell.Horizontal) in
  let dst = node_at g (xy 8 2) (Some Cell.Vertical) in
  match Dijkstra.shortest_path g ~weight:(Congestion.weight cong ~turn_cost:10.0) ~src ~dst with
  | None -> Alcotest.fail "no route"
  | Some r ->
      let p = Path.of_result ~src ~dst r in
      check_int "single turn" 1 (Path.turns p);
      check_int "manhattan moves" 11 (Path.moves p);
      check_float "cost" 21.0 (Path.cost p)

let test_fig5_turn_blind_ignores_turns () =
  let comp = tile () in
  let g = Graph.build comp in
  let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
  let src = node_at g (xy 2 7) (Some Cell.Horizontal) in
  let dst = node_at g (xy 8 2) (Some Cell.Vertical) in
  match Dijkstra.shortest_path g ~weight:(Congestion.weight cong ~turn_cost:0.0) ~src ~dst with
  | None -> Alcotest.fail "no route"
  | Some r ->
      let p = Path.of_result ~src ~dst r in
      (* same cell distance, but the model cannot distinguish turn counts *)
      check_int "manhattan moves" 11 (Path.moves p);
      check_float "cost counts only moves" 11.0 (Path.cost p)

let test_dijkstra_congestion_avoidance () =
  (* saturate the west vertical channel; the route must detour east *)
  let comp = tile () in
  let g = Graph.build comp in
  let tm = Timing.paper in
  let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
  let src = Graph.trap_node g 0 and dst = Graph.trap_node g 3 in
  let baseline =
    match Dijkstra.shortest_path g ~weight:(free_weight tm cong) ~src ~dst with
    | Some r -> Path.of_result ~src ~dst r
    | None -> Alcotest.fail "no route"
  in
  (* block the vertical segments the baseline uses; the tile's other column
     remains open, so a detour must exist and avoid them *)
  let segs = Component.segments comp in
  let blocked =
    List.filter
      (fun r ->
        match Resource.view r with
        | Resource.Segment s -> segs.(s).Component.orientation = Cell.Vertical
        | Resource.Junction _ -> false)
      (resources baseline)
  in
  check_bool "baseline crosses a vertical segment" true (blocked <> []);
  List.iter
    (fun r ->
      Congestion.acquire cong r;
      Congestion.acquire cong r)
    blocked;
  match Dijkstra.shortest_path g ~weight:(free_weight tm cong) ~src ~dst with
  | None -> Alcotest.fail "no detour found"
  | Some r ->
      let detour = Path.of_result ~src ~dst r in
      check_bool "avoids blocked segments" true
        (List.for_all (fun res -> not (List.mem res blocked)) (resources detour))

(* ----------------------------------------------------------------- Path *)

let route_tile src_tid dst_tid =
  let comp = tile () in
  let g = Graph.build comp in
  let tm = Timing.paper in
  let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
  let src = Graph.trap_node g src_tid and dst = Graph.trap_node g dst_tid in
  match Dijkstra.shortest_path g ~weight:(free_weight tm cong) ~src ~dst with
  | Some r -> (g, tm, Path.of_result ~src ~dst r)
  | None -> Alcotest.fail "no route"

let test_path_empty () =
  let p = Path.empty 5 in
  check_bool "empty" true (Path.is_empty p);
  check_int "no moves" 0 (Path.moves p);
  check_float "zero duration" 0.0 (Path.duration Timing.paper p);
  check_int "no resources" 0 (Path.num_resources p)

let test_path_resources_order () =
  let _, _, p = route_tile 0 3 in
  let rs = resources p in
  check_bool "has resources" true (List.length rs >= 3);
  (* no duplicates *)
  check_int "distinct" (List.length rs) (List.length (List.sort_uniq Resource.compare rs))

let test_path_resource_exits_monotone_and_bounded () =
  let _, tm, p = route_tile 0 3 in
  let exits = Array.make (Path.num_resources p) 0.0 in
  Path.resource_exits_into tm p exits;
  let d = Path.duration tm p in
  (* every slot is written (exits are positive) and no exit is after arrival *)
  Array.iter (fun t -> check_bool "within duration" true (t > 0.0 && t <= d +. 1e-9)) exits;
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Path.resource_exits_into: output buffer too small") (fun () ->
      Path.resource_exits_into tm p (Array.make (Path.num_resources p - 1) 0.0))

let test_path_cells_adjacent () =
  let g, _, p = route_tile 0 3 in
  let cells = Path.cells g p in
  let rec ok = function
    | a :: b :: rest -> (Coord.manhattan a b <= 1) && ok (b :: rest)
    | _ -> true
  in
  check_bool "cells contiguous" true (ok cells)

(* ---------------------------------------------------------------- Micro *)

(* lower a path through the engine's trace arena and materialize it *)
let lower g tm ~qubit ~start p =
  let b = Micro.Builder.create () in
  let arrival = Micro.Builder.lower_path b g tm ~qubit ~start p in
  (Micro.Builder.to_commands b, arrival)

let test_micro_lowering () =
  let g, tm, p = route_tile 0 3 in
  let cmds, arrival = lower g tm ~qubit:7 ~start:100.0 p in
  check_int "one command per edge" (Path.step_count p) (List.length cmds);
  check_float "arrival" (100.0 +. Path.duration tm p) arrival;
  (* commands are time-contiguous *)
  let rec contiguous t = function
    | [] -> ()
    | cmd :: rest ->
        check_float "contiguous" t (Micro.time cmd);
        let finish = match cmd with Micro.Move { finish; _ } | Micro.Turn { finish; _ } -> finish | _ -> t in
        contiguous finish rest
  in
  contiguous 100.0 cmds;
  (* all commands belong to qubit 7 *)
  List.iter (fun c -> check_bool "qubit" true (Micro.qubits_of c = [ 7 ])) cmds

let test_micro_turn_durations () =
  let g, tm, p = route_tile 0 3 in
  let cmds, _ = lower g tm ~qubit:0 ~start:0.0 p in
  let nturn = List.length (List.filter (function Micro.Turn _ -> true | _ -> false) cmds) in
  let nmove = List.length (List.filter (function Micro.Move _ -> true | _ -> false) cmds) in
  check_int "turns" (Path.turns p) nturn;
  check_int "moves" (Path.moves p) nmove;
  List.iter
    (function
      | Micro.Turn { start; finish; _ } -> check_float "turn takes t_turn" tm.Timing.t_turn (finish -. start)
      | Micro.Move { start; finish; _ } -> check_float "move takes t_move" tm.Timing.t_move (finish -. start)
      | Micro.Gate_start _ | Micro.Gate_end _ -> ())
    cmds

let test_micro_reverse () =
  let cmd = Micro.Move { qubit = 1; from_ = xy 0 0; to_ = xy 1 0; start = 10.0; finish = 11.0 } in
  (match Micro.reverse_command ~total:100.0 cmd with
  | Micro.Move { from_; to_; start; finish; _ } ->
      check_bool "endpoints swapped" true (Coord.equal from_ (xy 1 0) && Coord.equal to_ (xy 0 0));
      check_float "start" 89.0 start;
      check_float "finish" 90.0 finish
  | _ -> Alcotest.fail "wrong shape");
  match
    Micro.reverse_command ~total:100.0
      (Micro.Gate_start { instr_id = 3; trap = xy 2 2; qubits = [ 0; 1 ]; time = 40.0 })
  with
  | Micro.Gate_end { time; _ } -> check_float "gate mirrored" 60.0 time
  | _ -> Alcotest.fail "gate start must mirror to gate end"

(* ------------------------------------------------------------ properties *)

(* The edge list [Dijkstra.path_to] reads from a search is the reference
   for the packed flat-array path built from the same search: both give
   the same steps, move/turn counts and duration, the resource footprint
   and exit offsets a plain walk over the edges computes, and the
   prefilled edge-weight fast path returns the same route as the
   closure-weight search it shortcuts. *)

let is_turn (e : Graph.edge) = match e.Graph.kind with Graph.Turn _ -> true | _ -> false

let edge_time (tm : Timing.t) e = if is_turn e then tm.Timing.t_turn else tm.Timing.t_move

(* Exit offset per distinct resource, first-crossing order: a non-turn edge
   into a different resource (or a trap, which is none) closes the current
   one at the edge's completion; a revisited resource keeps its last exit. *)
let reference_exits tm edges =
  let exits = Hashtbl.create 8 and order = ref [] and clock = ref 0.0 and current = ref None in
  let close () = Option.iter (fun r -> Hashtbl.replace exits r !clock) !current in
  List.iter
    (fun (e : Graph.edge) ->
      clock := !clock +. edge_time tm e;
      if not (is_turn e) then begin
        let r = Resource.of_edge e.Graph.kind in
        if r <> !current then begin
          close ();
          Option.iter (fun r -> if not (List.mem r !order) then order := r :: !order) r;
          current := r
        end
      end)
    edges;
  close ();
  List.rev_map (fun r -> (r, Hashtbl.find exits r)) !order

let prop_flat_path_equals_list_repr =
  let comp = quale () in
  let g = Graph.build comp in
  let tm = Timing.paper in
  let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:1 in
  let ntraps = Array.length (Component.traps comp) in
  let ws = Workspace.create () in
  let ws2 = Workspace.create () in
  QCheck.Test.make ~name:"flat packed path = edge-list representation" ~count:60
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (a, b) ->
      let src = Graph.trap_node g (a mod ntraps) and dst = Graph.trap_node g (b mod ntraps) in
      let weight = free_weight tm cong in
      Dijkstra.run_into ws g ~weight ~src ~dst;
      match (Path.of_workspace ws g ~src ~dst, Dijkstra.path_to ws g ~dst) with
      | Some p, Some r ->
          let edges = r.Dijkstra.edges in
          let n = Path.num_resources p in
          let buf = Array.make n 0.0 in
          Path.resource_exits_into tm p buf;
          Path.equal p (Path.of_result ~src ~dst r)
          && Float.equal (Path.cost p) r.Dijkstra.cost
          && Path.step_count p = List.length edges
          && List.for_all2
               (fun i (e : Graph.edge) -> Path.step_dst p i = e.Graph.dst && Path.step_kind p i = e.Graph.kind)
               (List.init (List.length edges) Fun.id)
               edges
          && Path.turns p = List.length (List.filter is_turn edges)
          && Path.moves p = List.length edges - Path.turns p
          && Float.equal (Path.duration tm p)
               (List.fold_left (fun d e -> d +. edge_time tm e) 0.0 edges)
          && List.init n (fun i -> (Path.resource p i, buf.(i))) = reference_exits tm edges
          &&
          let ew = Workspace.edge_weights_for ws2 (Graph.num_edges g) in
          Congestion.track_weights cong ~turn_cost:(Timing.turn_cost_in_moves tm) g ew;
          Dijkstra.run_into ~edge_weights:ew ws2 g ~weight ~src ~dst;
          (match Path.of_workspace ws2 g ~src ~dst with None -> false | Some p2 -> Path.equal p p2)
      | _ -> false)

(* every segment and junction of a component *)
let all_resources comp =
  Array.append
    (Array.init (Array.length (Component.segments comp)) Resource.segment)
    (Array.init (Array.length (Component.junctions comp)) Resource.junction)

(* The engine's live weight array: after every acquire or release it must
   equal Congestion.weight on every edge, and a search reading it must
   return the same path as the closure-weight search. *)
let prop_live_weights_track =
  let comp = quale () in
  let g = Graph.build comp in
  let turn_cost = Timing.turn_cost_in_moves Timing.paper in
  let res = all_resources comp in
  let ntraps = Array.length (Component.traps comp) in
  let ws = Workspace.create () and ws2 = Workspace.create () in
  QCheck.Test.make ~name:"live edge weights = Congestion.weight after every acquire/release" ~count:30
    QCheck.(
      pair (int_range 1 2)
        (list_of_size Gen.(1 -- 40) (triple (int_bound 3) (int_bound 100_000) (pair (int_bound 10_000) (int_bound 10_000)))))
    (fun (cap, ops) ->
      let cong = Congestion.create comp ~channel_capacity:cap ~junction_capacity:cap in
      let ew = Array.make (Graph.num_edges g) Float.nan in
      Congestion.track_weights cong ~turn_cost g ew;
      let weight = Congestion.weight cong ~turn_cost in
      let held = ref [] in
      List.for_all
        (fun (op, pick, (a, b)) ->
          (match !held with
          | _ :: _ when op = 0 ->
              let r = List.nth !held (pick mod List.length !held) in
              Congestion.release cong r;
              let rec drop = function [] -> [] | x :: tl -> if Resource.equal x r then tl else x :: drop tl in
              held := drop !held
          | _ ->
              let r = res.(pick mod Array.length res) in
              if Congestion.is_free cong r then begin
                Congestion.acquire cong r;
                held := r :: !held
              end);
          let live = ref true in
          for i = 0 to Graph.num_edges g - 1 do
            if not (Float.equal ew.(i) (weight (Graph.succ_kind g i))) then live := false
          done;
          let src = Graph.trap_node g (a mod ntraps) and dst = Graph.trap_node g (b mod ntraps) in
          Dijkstra.run_into ws g ~weight ~src ~dst;
          Dijkstra.run_into ~edge_weights:ew ws2 g ~weight ~src ~dst;
          !live
          && Option.equal Path.equal (Path.of_workspace ws g ~src ~dst) (Path.of_workspace ws2 g ~src ~dst))
        ops)

let prop_random_trap_pairs_route =
  QCheck.Test.make ~name:"all trap pairs on the QUALE fabric route cleanly" ~count:60
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (a, b) ->
      let comp = quale () in
      let g = Graph.build comp in
      let tm = Timing.paper in
      let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
      let ntraps = Array.length (Component.traps comp) in
      let src_t = a mod ntraps and dst_t = b mod ntraps in
      if src_t = dst_t then true
      else
        let src = Graph.trap_node g src_t and dst = Graph.trap_node g dst_t in
        match Dijkstra.shortest_path g ~weight:(free_weight tm cong) ~src ~dst with
        | None -> false
        | Some r ->
            let p = Path.of_result ~src ~dst r in
            (* uncongested: cost = moves + 10 * turns, and duration agrees *)
            Float.abs (Path.cost p -. (float_of_int (Path.moves p) +. (10.0 *. float_of_int (Path.turns p))))
            < 1e-9
            && Float.abs (Path.duration tm p -. (Path.cost p *. tm.Timing.t_move)) < 1e-9)

let prop_path_at_least_manhattan =
  QCheck.Test.make ~name:"route length >= Manhattan distance" ~count:60
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (a, b) ->
      let comp = quale () in
      let g = Graph.build comp in
      let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
      let traps = Component.traps comp in
      let src_t = a mod Array.length traps and dst_t = b mod Array.length traps in
      if src_t = dst_t then true
      else
        let src = Graph.trap_node g src_t and dst = Graph.trap_node g dst_t in
        match Dijkstra.shortest_path g ~weight:(Congestion.weight cong ~turn_cost:10.0) ~src ~dst with
        | None -> false
        | Some r ->
            let p = Path.of_result ~src ~dst r in
            Path.moves p >= Coord.manhattan traps.(src_t).Component.tpos traps.(dst_t).Component.tpos)

(* ------------------------------------------------------ guided search *)

(* The PathFinder's guided search: Dijkstra's loop with the destination's
   lower-bound table as A* heuristic.  Every weight below prices a turn at
   10 move units, so a table built at turn cost 10 is admissible for it. *)
let astar ?workspace g ~weight ~src ~dst =
  let ws = match workspace with Some w -> w | None -> Workspace.create () in
  let lb = Lower_bound.build ~workspace:ws g ~turn_cost:10.0 ~dst in
  Dijkstra.run_into ~heuristic:(Lower_bound.heuristic lb) ws g ~weight ~src ~dst;
  Dijkstra.path_to ws g ~dst

let test_astar_matches_dijkstra_cost () =
  let comp = quale () in
  let g = Graph.build comp in
  let tm = Timing.paper in
  let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
  let src = Graph.trap_node g 0 and dst = Graph.trap_node g 101 in
  let w = free_weight tm cong in
  match (astar g ~weight:w ~src ~dst, Dijkstra.shortest_path g ~weight:w ~src ~dst) with
  | Some a, Some d -> check_float "same cost" d.Dijkstra.cost a.Dijkstra.cost
  | _ -> Alcotest.fail "route not found"

let test_astar_blocked () =
  let g = Graph.build (tile ()) in
  match astar g ~weight:(fun _ -> Float.infinity) ~src:(Graph.trap_node g 0) ~dst:(Graph.trap_node g 3) with
  | None -> ()
  | Some _ -> Alcotest.fail "path through infinite weights"

let prop_astar_equals_dijkstra =
  QCheck.Test.make ~name:"A* cost equals Dijkstra on random congested queries" ~count:40
    QCheck.(triple (int_bound 1000) (int_bound 1000) (list_of_size Gen.(0 -- 20) (int_bound 1000)))
    (fun (a, b, congested) ->
      let comp = quale () in
      let g = Graph.build comp in
      let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
      (* randomly congest some segments with one user each *)
      let nsegs = Array.length (Component.segments comp) in
      List.iter
        (fun s ->
          let r = Resource.segment (s mod nsegs) in
          if Congestion.is_free cong r then Congestion.acquire cong r)
        congested;
      let ntraps = Array.length (Component.traps comp) in
      let src = Graph.trap_node g (a mod ntraps) and dst = Graph.trap_node g (b mod ntraps) in
      let w = Congestion.weight cong ~turn_cost:10.0 in
      match (astar g ~weight:w ~src ~dst, Dijkstra.shortest_path g ~weight:w ~src ~dst) with
      | Some r1, Some r2 -> Float.abs (r1.Dijkstra.cost -. r2.Dijkstra.cost) < 1e-9
      | None, None -> true
      | _ -> false)

(* ------------------------------------------------------------ Workspace *)

(* one workspace reused across every query of the generated batch must
   return exactly what fresh per-call arrays return: same costs, same edge
   sequences, on both searches, under randomized congestion *)
let prop_workspace_reuse_matches_fresh =
  QCheck.Test.make ~name:"reused workspace = fresh arrays (Dijkstra & A*)" ~count:20
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 8) (pair (int_bound 1000) (int_bound 1000)))
        (list_of_size Gen.(0 -- 20) (int_bound 1000)))
    (fun (queries, congested) ->
      let comp = quale () in
      let g = Graph.build comp in
      let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
      let nsegs = Array.length (Component.segments comp) in
      List.iter
        (fun s ->
          let r = Resource.segment (s mod nsegs) in
          if Congestion.is_free cong r then Congestion.acquire cong r)
        congested;
      let w = Congestion.weight cong ~turn_cost:10.0 in
      let ntraps = Array.length (Component.traps comp) in
      let ws = Workspace.create () in
      List.for_all
        (fun (a, b) ->
          let src = Graph.trap_node g (a mod ntraps) and dst = Graph.trap_node g (b mod ntraps) in
          let same r1 r2 =
            match (r1, r2) with
            | None, None -> true
            | Some (r1 : Dijkstra.result), Some r2 ->
                Float.abs (r1.Dijkstra.cost -. r2.Dijkstra.cost) < 1e-9
                && r1.Dijkstra.edges = r2.Dijkstra.edges
            | _ -> false
          in
          same
            (Dijkstra.shortest_path ~workspace:ws g ~weight:w ~src ~dst)
            (Dijkstra.shortest_path g ~weight:w ~src ~dst)
          && same (astar ~workspace:ws g ~weight:w ~src ~dst) (astar g ~weight:w ~src ~dst))
        queries)

let prop_workspace_distances_match =
  QCheck.Test.make ~name:"reused workspace distances = fresh distances" ~count:10
    QCheck.(list_of_size Gen.(1 -- 4) (int_bound 1000))
    (fun srcs ->
      let comp = quale () in
      let g = Graph.build comp in
      let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
      let w = Congestion.weight cong ~turn_cost:10.0 in
      let ntraps = Array.length (Component.traps comp) in
      let ws = Workspace.create () in
      List.for_all
        (fun s ->
          let src = Graph.trap_node g (s mod ntraps) in
          Dijkstra.distances ~workspace:ws g ~weight:w ~src = Dijkstra.distances g ~weight:w ~src)
        srcs)

(* ------------------------------------------------------------------ Seal *)

(* The QUALE fabric, a grid, a linear chain and a ladder: the seals must
   be exact on every topology, not just the paper's.  The ladder's rungs
   are one-cell segments between two junctions, so a turn edge sits two
   hops from a rung — the case the seals' back-edge exemptions decide. *)
let ladder =
  match Layout.parse (String.concat "\n" [ "  T T  "; " J-J-J "; " | | | "; " J-J-J "; "  T T  " ]) with
  | Ok l -> l
  | Error e -> failwith e

let seal_fabrics =
  lazy
    (List.map
       (fun l ->
         let comp = match Component.extract l with Ok c -> c | Error e -> Alcotest.failf "extract: %s" e in
         (comp, Graph.build comp))
       [
         Layout.quale_45x85 ();
         Layout.make_grid ~width:23 ~height:17 ~pitch_x:7 ~pitch_y:5 ~margin:2 ~traps_per_channel:1 ();
         Layout.linear ~traps:6 ();
         ladder;
       ])

(* Random congestion at capacity 1 or 2: each resource is taken with
   probability [density]%, by 1..capacity users.  Whenever a seal holds,
   plain closure-weight Dijkstra must find no path.  The fire counters
   let the caller reject a vacuous pass. *)
let prop_seals_imply_no_path ~source_fires ~dest_fires ~dest_only =
  QCheck.Test.make ~name:"a sealed search finds no path" ~count:80
    QCheck.(quad (int_bound 3) (int_range 1 2) (int_bound 100) (int_bound 1_000_000))
    (fun (fi, cap, density, seed) ->
      let comp, g = List.nth (Lazy.force seal_fabrics) fi in
      let rng = Random.State.make [| seed |] in
      let cong = Congestion.create comp ~channel_capacity:cap ~junction_capacity:cap in
      let turn_cost = Timing.turn_cost_in_moves Timing.paper in
      let ew = Array.make (Graph.num_edges g) 0.0 in
      Congestion.track_weights cong ~turn_cost g ew;
      Array.iter
        (fun r ->
          if Random.State.int rng 100 < density then
            for _ = 1 to 1 + Random.State.int rng cap do
              if Congestion.is_free cong r then Congestion.acquire cong r
            done)
        (all_resources comp);
      let ntraps = Array.length (Component.traps comp) and n = Graph.num_nodes g in
      (* a random node one or two hops along out-edges ([`Out]) or
         in-edges ([`In]) from [v]: near pairs are where the seals'
         [v <> dst] / [u <> src] and back-edge exemptions decide *)
      let hop dir v =
        let step v =
          match dir with
          | `Out ->
              let a = Graph.succ_start g v and b = Graph.succ_stop g v in
              if a = b then v else Graph.succ_dst g (a + Random.State.int rng (b - a))
          | `In ->
              let a = Graph.pred_start g v and b = Graph.pred_stop g v in
              if a = b then v else Graph.edge_src g (Graph.pred_edge g (a + Random.State.int rng (b - a)))
        in
        let v = step v in
        if Random.State.bool rng then step v else v
      in
      (* trap pairs (the engine's queries), arbitrary node pairs and near
         pairs in both directions *)
      let queries =
        List.init 40 (fun _ ->
            (Graph.trap_node g (Random.State.int rng ntraps), Graph.trap_node g (Random.State.int rng ntraps)))
        @ List.init 20 (fun _ -> (Random.State.int rng n, Random.State.int rng n))
        @ List.init 20 (fun _ ->
              let dst = Random.State.int rng n in
              (hop `In dst, dst))
        @ List.init 20 (fun _ ->
              let src = Random.State.int rng n in
              (src, hop `Out src))
      in
      let ws = Workspace.create () in
      List.for_all
        (fun (src, dst) ->
          src = dst
          ||
          let s = Seal.source_sealed g ew ~src ~dst and d = Seal.dest_sealed g ew ~src ~dst in
          if s then incr source_fires;
          if d then incr dest_fires;
          if d && not s then incr dest_only;
          (not (s || d))
          || Dijkstra.shortest_path ~workspace:ws g ~weight:(Congestion.weight cong ~turn_cost) ~src ~dst = None)
        queries)

let test_seals_sound_and_fire () =
  let source_fires = ref 0 and dest_fires = ref 0 and dest_only = ref 0 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 14 |])
    (prop_seals_imply_no_path ~source_fires ~dest_fires ~dest_only);
  check_bool (Printf.sprintf "source seal fires (%d)" !source_fires) true (!source_fires > 0);
  check_bool (Printf.sprintf "destination seal fires (%d)" !dest_fires) true (!dest_fires > 0);
  check_bool (Printf.sprintf "destination seal alone fires (%d)" !dest_only) true (!dest_only > 0)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "router"
    [
      ( "timing",
        [
          Alcotest.test_case "paper values" `Quick test_timing_paper;
          Alcotest.test_case "guards" `Quick test_timing_guards;
        ] );
      ( "resource",
        [
          Alcotest.test_case "of_edge" `Quick test_resource_of_edge;
          Alcotest.test_case "pack round-trip" `Quick test_resource_pack_roundtrip;
        ] );
      ( "congestion",
        [
          Alcotest.test_case "lifecycle" `Quick test_congestion_lifecycle;
          Alcotest.test_case "weights" `Quick test_congestion_weights;
          Alcotest.test_case "capacity one" `Quick test_congestion_capacity_one;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "self" `Quick test_dijkstra_self;
          Alcotest.test_case "blocked" `Quick test_dijkstra_blocked;
          Alcotest.test_case "negative rejected" `Quick test_dijkstra_negative_rejected;
          Alcotest.test_case "trap to trap" `Quick test_dijkstra_trap_to_trap;
          Alcotest.test_case "distances" `Quick test_dijkstra_distances;
          Alcotest.test_case "figure 5 turn-aware" `Quick test_fig5_turn_aware_single_turn;
          Alcotest.test_case "figure 5 turn-blind" `Quick test_fig5_turn_blind_ignores_turns;
          Alcotest.test_case "congestion avoidance" `Quick test_dijkstra_congestion_avoidance;
          Alcotest.test_case "short edge weights rejected" `Quick test_dijkstra_short_edge_weights;
        ] );
      ( "path",
        [
          Alcotest.test_case "empty" `Quick test_path_empty;
          Alcotest.test_case "resources order" `Quick test_path_resources_order;
          Alcotest.test_case "resource exits" `Quick test_path_resource_exits_monotone_and_bounded;
          Alcotest.test_case "cells contiguous" `Quick test_path_cells_adjacent;
        ] );
      ( "micro",
        [
          Alcotest.test_case "lowering" `Quick test_micro_lowering;
          Alcotest.test_case "durations" `Quick test_micro_turn_durations;
          Alcotest.test_case "reverse" `Quick test_micro_reverse;
        ] );
      ( "astar",
        [
          Alcotest.test_case "matches dijkstra" `Quick test_astar_matches_dijkstra_cost;
          Alcotest.test_case "blocked" `Quick test_astar_blocked;
        ]
        @ qsuite [ prop_astar_equals_dijkstra ] );
      ( "workspace",
        qsuite [ prop_workspace_reuse_matches_fresh; prop_workspace_distances_match ] );
      ( "properties",
        qsuite
          [
            prop_flat_path_equals_list_repr;
            prop_random_trap_pairs_route;
            prop_path_at_least_manhattan;
            prop_live_weights_track;
          ] );
      ("seal", [ Alcotest.test_case "sealed searches find no path; both seals fire" `Quick test_seals_sound_and_fire ]);
    ]
