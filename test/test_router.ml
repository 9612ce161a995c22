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

(* a per-kind weight function as the per-CSR-edge array searches read *)
let tabulate g weight = Array.init (Graph.num_edges g) (fun i -> weight (Graph.succ_kind g i))

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

(* One resource numbering, owned by the component.  The flat cell index
   must answer [segment_at]/[junction_at]/[trap_at] exactly like reference
   tables built from the component's own segment, junction and trap lists
   (on every cell and a one-cell border off the layout), and the graph's
   resource rows must agree with its edge kinds: a [Chan r]/[Junc r] edge
   names a segment/junction resource, enters a cell whose code is [r] and
   is listed once, in row [r]; [Turn]/[Tap] edges are in no row. *)
let resource_numbering_ok comp =
  let seg = Coord.Tbl.create 64 and junc = Coord.Tbl.create 64 and trap = Coord.Tbl.create 64 in
  Array.iter
    (fun (s : Component.segment) -> Array.iter (fun c -> Coord.Tbl.replace seg c s.Component.sid) s.Component.cells)
    (Component.segments comp);
  Array.iter (fun (j : Component.junction) -> Coord.Tbl.replace junc j.Component.jpos j.Component.jid) (Component.junctions comp);
  Array.iter (fun (t : Component.trap) -> Coord.Tbl.replace trap t.Component.tpos t.Component.tid) (Component.traps comp);
  let lay = Component.layout comp in
  let ok = ref true in
  for y = -1 to Layout.height lay do
    for x = -1 to Layout.width lay do
      let c = xy x y in
      if
        Component.segment_at comp c <> Coord.Tbl.find_opt seg c
        || Component.junction_at comp c <> Coord.Tbl.find_opt junc c
        || Component.trap_at comp c <> Coord.Tbl.find_opt trap c
      then ok := false
    done
  done;
  let g = Graph.build comp in
  let m = Graph.num_edges g in
  let row = Array.make m (-1) and listed = Array.make m 0 in
  for r = 0 to Component.num_resources comp - 1 do
    for k = Graph.resource_edges_start g r to Graph.resource_edges_stop g r - 1 do
      let i = Graph.resource_edge g k in
      row.(i) <- r;
      listed.(i) <- listed.(i) + 1
    done
  done;
  let enters i r = Component.cell_code comp (Graph.node_pos g (Graph.succ_dst g i)) = r in
  for i = 0 to m - 1 do
    let edge_ok =
      match Graph.succ_kind g i with
      | Graph.Chan r -> Component.is_segment comp r && enters i r && listed.(i) = 1 && row.(i) = r
      | Graph.Junc r ->
          (not (Component.is_segment comp r)) && enters i r && listed.(i) = 1 && row.(i) = r
      | Graph.Turn _ | Graph.Tap _ -> listed.(i) = 0
    in
    if not edge_ok then ok := false
  done;
  !ok

let degraded_quale () =
  let layout = Layout.quale_45x85 () in
  let faults = Fault.sample ~seed:2012 ~index:0 ~n:8 (quale ()) in
  match Fault.apply layout faults with
  | Error e -> Alcotest.failf "fault apply: %s" e
  | Ok a -> (
      match Component.extract a.Fault.layout with
      | Ok c -> c
      | Error e -> Alcotest.failf "extract degraded: %s" e)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* QUALE 45x85, a fault-degraded variant whose junction and segment lists
   have holes, and every corpus fabric that extracts *)
let test_resource_numbering_fabrics () =
  check_bool "quale" true (resource_numbering_ok (quale ()));
  check_bool "degraded quale" true (resource_numbering_ok (degraded_quale ()));
  let extracted =
    Sys.readdir "corpus/bad" |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".fabric")
    |> List.filter_map (fun f ->
           match Layout.parse (read_file (Filename.concat "corpus/bad" f)) with
           | Error _ -> None
           | Ok lay -> (
               match Component.extract lay with
               | Error _ -> None
               | Ok comp ->
                   check_bool f true (resource_numbering_ok comp);
                   Some f))
  in
  check_bool "some corpus fabrics extract" true (List.length extracted >= 3)

let prop_resource_numbering_grids =
  QCheck.Test.make ~name:"cell index and rows on random grids" ~count:40
    QCheck.(quad (3 -- 10) (3 -- 10) (0 -- 3) (pair (2 -- 4) (2 -- 4)))
    (fun (px, py, tpc, (nx, ny)) ->
      let tpc = min tpc (px - 2) in
      let lay =
        Layout.make_grid ~width:((nx * px) + 5) ~height:((ny * py) + 5) ~pitch_x:px ~pitch_y:py
          ~margin:2 ~traps_per_channel:tpc ()
      in
      match Component.extract lay with Error _ -> false | Ok comp -> resource_numbering_ok comp)

(* ----------------------------------------------------------- Congestion *)

let test_congestion_lifecycle () =
  let c = tile () in
  let cong = Congestion.create c ~channel_capacity:2 ~junction_capacity:2 in
  let r = 0 (* segment 0 *) in
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
  Congestion.acquire cong 0;
  check_float "one user chan" 2.0 (Congestion.weight cong ~turn_cost:10.0 (Graph.Chan 0));
  Congestion.acquire cong 0;
  check_bool "full chan infinite" true
    (Congestion.weight cong ~turn_cost:10.0 (Graph.Chan 0) = Float.infinity);
  let j0 = Array.length (Component.segments c) (* junction 0 *) in
  check_float "junction" 1.0 (Congestion.weight cong ~turn_cost:10.0 (Graph.Junc j0));
  check_float "turn" 10.0 (Congestion.weight cong ~turn_cost:10.0 (Graph.Turn j0));
  check_float "tap" 1.0 (Congestion.weight cong ~turn_cost:10.0 (Graph.Tap 0));
  check_int "in flight" 2 (Congestion.total_in_flight cong);
  (* a junction counts in the same users array, apart from the segments *)
  Congestion.acquire cong j0;
  Congestion.acquire cong j0;
  check_int "segment 0 untouched" 2 (Congestion.users cong 0);
  check_bool "full junction infinite" true
    (Congestion.weight cong ~turn_cost:10.0 (Graph.Junc j0) = Float.infinity);
  check_int "junction capacity" 2 (Congestion.capacity cong j0)

let test_congestion_capacity_one () =
  (* QUALE mode: capacity-1 channels saturate after a single user *)
  let c = tile () in
  let cong = Congestion.create c ~channel_capacity:1 ~junction_capacity:2 in
  Congestion.acquire cong 0;
  check_bool "saturated at 1" true
    (Congestion.weight cong ~turn_cost:0.0 (Graph.Chan 0) = Float.infinity)

(* ------------------------------------------------------------- Dijkstra *)

let test_dijkstra_self () =
  let g = Graph.build (tile ()) in
  match Dijkstra.shortest_path g ~weights:(tabulate g (fun _ -> 1.0)) ~src:0 ~dst:0 with
  | Some { cost; edges } ->
      check_float "zero cost" 0.0 cost;
      check_int "no edges" 0 (List.length edges)
  | None -> Alcotest.fail "self path not found"

let test_dijkstra_blocked () =
  let g = Graph.build (tile ()) in
  let src = Graph.trap_node g 0 and dst = Graph.trap_node g 3 in
  match Dijkstra.shortest_path g ~weights:(tabulate g (fun _ -> Float.infinity)) ~src ~dst with
  | None -> ()
  | Some _ -> Alcotest.fail "path through infinite weights"

(* a NaN weight fails every comparison, so an unguarded loop would read
   it as a wall; it must raise like a negative one *)
let test_dijkstra_negative_rejected () =
  let g = Graph.build (tile ()) in
  let src = Graph.trap_node g 0 and dst = Graph.trap_node g 3 in
  List.iter
    (fun w ->
      match Dijkstra.shortest_path g ~weights:(tabulate g (fun _ -> w)) ~src ~dst with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "weight %g accepted" w)
    [ -1.0; Float.nan ]

let test_dijkstra_short_edge_weights () =
  let g = Graph.build (tile ()) in
  let src = Graph.trap_node g 0 and dst = Graph.trap_node g 3 in
  let ws = Workspace.create () in
  let weights = Array.make (Graph.num_edges g) 1.0 in
  List.iter
    (fun len ->
      match Dijkstra.run_into ws g ~weights:(Array.make len 1.0) ~src ~dst with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "weights of length %d < %d accepted" len (Graph.num_edges g))
    [ 0; Graph.num_edges g - 1 ];
  (match Dijkstra.run_into ~heuristic:(Array.make (Graph.num_nodes g - 1) 0.0) ws g ~weights ~src ~dst with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a heuristic shorter than the node count accepted");
  (* exactly sized arrays are accepted *)
  Dijkstra.run_into ~heuristic:(Array.make (Graph.num_nodes g) 0.0) ws g ~weights ~src ~dst;
  check_bool "exact length routes" true (Workspace.is_settled ws dst)

let test_dijkstra_trap_to_trap () =
  let comp = tile () in
  let g = Graph.build comp in
  let tm = Timing.paper in
  let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
  let src = Graph.trap_node g 0 and dst = Graph.trap_node g 3 in
  match Dijkstra.shortest_path g ~weights:(tabulate g (free_weight tm cong)) ~src ~dst with
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
  let dist = Dijkstra.distances g ~weights:(tabulate g (fun _ -> 1.0)) ~src:(Graph.trap_node g 0) in
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
  match Dijkstra.shortest_path g ~weights:(tabulate g (Congestion.weight cong ~turn_cost:10.0)) ~src ~dst with
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
  match Dijkstra.shortest_path g ~weights:(tabulate g (Congestion.weight cong ~turn_cost:0.0)) ~src ~dst with
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
    match Dijkstra.shortest_path g ~weights:(tabulate g (free_weight tm cong)) ~src ~dst with
    | Some r -> Path.of_result ~src ~dst r
    | None -> Alcotest.fail "no route"
  in
  (* block the vertical segments the baseline uses; the tile's other column
     remains open, so a detour must exist and avoid them *)
  let segs = Component.segments comp in
  let blocked =
    List.filter
      (fun r ->
        Component.is_segment comp r && segs.(r).Component.orientation = Cell.Vertical)
      (resources baseline)
  in
  check_bool "baseline crosses a vertical segment" true (blocked <> []);
  List.iter
    (fun r ->
      Congestion.acquire cong r;
      Congestion.acquire cong r)
    blocked;
  match Dijkstra.shortest_path g ~weights:(tabulate g (free_weight tm cong)) ~src ~dst with
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
  match Dijkstra.shortest_path g ~weights:(tabulate g (free_weight tm cong)) ~src ~dst with
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
  check_int "distinct" (List.length rs) (List.length (List.sort_uniq Int.compare rs))

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
        let r = match e.Graph.kind with Graph.Chan r | Graph.Junc r -> Some r | Graph.Turn _ | Graph.Tap _ -> None in
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
      Dijkstra.run_into ws g ~weights:(tabulate g (free_weight tm cong)) ~src ~dst;
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
          Dijkstra.run_into ws2 g ~weights:ew ~src ~dst;
          (match Path.of_workspace ws2 g ~src ~dst with None -> false | Some p2 -> Path.equal p p2)
      | _ -> false)

(* The engine's live weight array: after every acquire or release it must
   equal Congestion.weight on every edge, and a search reading it must
   return the same path as the closure-weight search. *)
let prop_live_weights_track =
  let comp = quale () in
  let g = Graph.build comp in
  let turn_cost = Timing.turn_cost_in_moves Timing.paper in
  let nres = Component.num_resources comp in
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
              let rec drop = function [] -> [] | x :: tl -> if x = r then tl else x :: drop tl in
              held := drop !held
          | _ ->
              let r = pick mod nres in
              if Congestion.is_free cong r then begin
                Congestion.acquire cong r;
                held := r :: !held
              end);
          let live = ref true in
          for i = 0 to Graph.num_edges g - 1 do
            if not (Float.equal ew.(i) (weight (Graph.succ_kind g i))) then live := false
          done;
          let src = Graph.trap_node g (a mod ntraps) and dst = Graph.trap_node g (b mod ntraps) in
          Dijkstra.run_into ws g ~weights:(tabulate g weight) ~src ~dst;
          Dijkstra.run_into ws2 g ~weights:ew ~src ~dst;
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
        match Dijkstra.shortest_path g ~weights:(tabulate g (free_weight tm cong)) ~src ~dst with
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
        match Dijkstra.shortest_path g ~weights:(tabulate g (Congestion.weight cong ~turn_cost:10.0)) ~src ~dst with
        | None -> false
        | Some r ->
            let p = Path.of_result ~src ~dst r in
            Path.moves p >= Coord.manhattan traps.(src_t).Component.tpos traps.(dst_t).Component.tpos)

(* ------------------------------------------------------ guided search *)

(* The PathFinder's guided search: Dijkstra's loop with the destination's
   lower-bound table as A* heuristic.  Every weight below prices a turn at
   10 move units, so a table built at turn cost 10 is admissible for it. *)
let astar ?workspace g ~weights ~src ~dst =
  let ws = match workspace with Some w -> w | None -> Workspace.create () in
  let lb = Lower_bound.toward (Lower_bound.create g ~turn_cost:10.0) dst in
  Dijkstra.run_into ~heuristic:lb ws g ~weights ~src ~dst;
  Dijkstra.path_to ws g ~dst

let test_astar_matches_dijkstra_cost () =
  let comp = quale () in
  let g = Graph.build comp in
  let tm = Timing.paper in
  let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
  let src = Graph.trap_node g 0 and dst = Graph.trap_node g 101 in
  let w = tabulate g (free_weight tm cong) in
  match (astar g ~weights:w ~src ~dst, Dijkstra.shortest_path g ~weights:w ~src ~dst) with
  | Some a, Some d -> check_float "same cost" d.Dijkstra.cost a.Dijkstra.cost
  | _ -> Alcotest.fail "route not found"

let test_astar_blocked () =
  let g = Graph.build (tile ()) in
  match
    astar g ~weights:(tabulate g (fun _ -> Float.infinity)) ~src:(Graph.trap_node g 0)
      ~dst:(Graph.trap_node g 3)
  with
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
          let r = s mod nsegs in
          if Congestion.is_free cong r then Congestion.acquire cong r)
        congested;
      let ntraps = Array.length (Component.traps comp) in
      let src = Graph.trap_node g (a mod ntraps) and dst = Graph.trap_node g (b mod ntraps) in
      let w = tabulate g (Congestion.weight cong ~turn_cost:10.0) in
      match (astar g ~weights:w ~src ~dst, Dijkstra.shortest_path g ~weights:w ~src ~dst) with
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
          let r = s mod nsegs in
          if Congestion.is_free cong r then Congestion.acquire cong r)
        congested;
      let w = tabulate g (Congestion.weight cong ~turn_cost:10.0) in
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
            (Dijkstra.shortest_path ~workspace:ws g ~weights:w ~src ~dst)
            (Dijkstra.shortest_path g ~weights:w ~src ~dst)
          && same (astar ~workspace:ws g ~weights:w ~src ~dst) (astar g ~weights:w ~src ~dst))
        queries)

let prop_workspace_distances_match =
  QCheck.Test.make ~name:"reused workspace distances = fresh distances" ~count:10
    QCheck.(list_of_size Gen.(1 -- 4) (int_bound 1000))
    (fun srcs ->
      let comp = quale () in
      let g = Graph.build comp in
      let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
      let w = tabulate g (Congestion.weight cong ~turn_cost:10.0) in
      let ntraps = Array.length (Component.traps comp) in
      let ws = Workspace.create () in
      List.for_all
        (fun s ->
          let src = Graph.trap_node g (s mod ntraps) in
          Dijkstra.distances ~workspace:ws g ~weights:w ~src = Dijkstra.distances g ~weights:w ~src)
        srcs)

(* ------------------------------------------------------ one relax loop *)

(* a finite weight on the half-unit grid, or a wall *)
let is_half_multiple w = w = Float.infinity || (w >= 0.0 && Float.of_int (Float.to_int (2.0 *. w)) = 2.0 *. w)

(* A swap-based binary heap of (key, hops, node) entries ordered
   lexicographically on (key, hops): the comparisons of
   [Dijkstra.run_into]'s hole-moving sifts, in the same order, so both
   pop equal keys alike. *)
type ref_heap = { mutable keys : float array; mutable khops : int array; mutable nodes : int array; mutable size : int }

let ref_heap_lt h i j = h.keys.(i) < h.keys.(j) || (h.keys.(i) = h.keys.(j) && h.khops.(i) < h.khops.(j))

let ref_heap_swap h i j =
  let k = h.keys.(i) and kh = h.khops.(i) and v = h.nodes.(i) in
  h.keys.(i) <- h.keys.(j);
  h.khops.(i) <- h.khops.(j);
  h.nodes.(i) <- h.nodes.(j);
  h.keys.(j) <- k;
  h.khops.(j) <- kh;
  h.nodes.(j) <- v

let ref_heap_push h key kh v =
  if h.size = Array.length h.keys then begin
    let grow a fill = Array.append a (Array.make (max 1 (Array.length a)) fill) in
    h.keys <- grow h.keys 0.0;
    h.khops <- grow h.khops 0;
    h.nodes <- grow h.nodes 0
  end;
  let i = ref h.size in
  h.keys.(!i) <- key;
  h.khops.(!i) <- kh;
  h.nodes.(!i) <- v;
  h.size <- h.size + 1;
  while !i > 0 && ref_heap_lt h !i ((!i - 1) / 2) do
    ref_heap_swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let ref_heap_pop h =
  let top = h.nodes.(0) in
  h.size <- h.size - 1;
  ref_heap_swap h 0 h.size;
  let i = ref 0 and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let smallest = if l < h.size && ref_heap_lt h l !i then l else !i in
    let smallest = if r < h.size && ref_heap_lt h r smallest then r else smallest in
    if smallest = !i then sinking := false
    else begin
      ref_heap_swap h !i smallest;
      i := smallest
    end
  done;
  top

(* The closure relax loop [Dijkstra.run_into] carried beside its array
   loop, kept as the reference: it calls a per-kind weight function per
   edge and a per-node heuristic function per push, and keeps its queue
   in the heap above.  A search toward [dst] follows the canonical rule:
   (cost, hops) labels, the queue ordered by (cost + h, hops), and the
   lowest-index tight in-edge as predecessor.  A sweep ([dst = -1])
   orders labels by cost alone. *)
let reference_run_into ?heuristic ws graph ~weight ~src ~dst =
  let n = Graph.num_nodes graph in
  let h = match heuristic with Some f -> f | None -> fun _ -> 0.0 in
  Workspace.prepare ws n;
  let gen = ws.Workspace.generation in
  let dist = ws.Workspace.dist
  and hops = ws.Workspace.hops
  and pred_edge = ws.Workspace.pred_edge
  and pred_node = ws.Workspace.pred_node
  and reached = ws.Workspace.reached
  and settled = ws.Workspace.settled
  and queue = { keys = [||]; khops = [||]; nodes = [||]; size = 0 } in
  dist.(src) <- 0.0;
  hops.(src) <- 0;
  pred_edge.(src) <- -1;
  pred_node.(src) <- -1;
  reached.(src) <- gen;
  let sweep = dst = -1 in
  ref_heap_push queue (h src) 0 src;
  let finished = ref false in
  while (not !finished) && queue.size > 0 do
    let u = ref_heap_pop queue in
    if settled.(u) <> gen then begin
      settled.(u) <- gen;
      if u = dst then finished := true
      else begin
        let du = dist.(u) in
        for i = Graph.succ_start graph u to Graph.succ_stop graph u - 1 do
          let w = weight (Graph.succ_kind graph i) in
          if w < 0.0 then invalid_arg "Dijkstra: negative edge weight";
          if w < Float.infinity then begin
            let v = Graph.succ_dst graph i in
            let nd = du +. w and nh = hops.(u) + 1 in
            let old = if reached.(v) = gen then Some (dist.(v), hops.(v)) else None in
            match old with
            | Some (dv, _) when sweep && dv <= nd -> ()
            | Some (dv, hv) when (dv, hv) < (nd, nh) -> ()
            | Some (dv, hv) when (dv, hv) = (nd, nh) ->
                if i < pred_edge.(v) then begin
                  pred_edge.(v) <- i;
                  pred_node.(v) <- u
                end
            | Some _ | None ->
                dist.(v) <- nd;
                hops.(v) <- nh;
                pred_edge.(v) <- i;
                pred_node.(v) <- u;
                reached.(v) <- gen;
                ref_heap_push queue (nd +. h v) (if sweep then 0 else nh) v
          end
        done
      end
    end
  done

(* QUALE 45x85, a grid, a linear chain, then small random grids *)
let loop_fabrics =
  lazy
    (List.map
       (fun l -> (match Component.extract l with Ok c -> c | Error e -> Alcotest.failf "extract: %s" e) |> Graph.build)
       [
         Layout.quale_45x85 ();
         Layout.make_grid ~width:23 ~height:17 ~pitch_x:7 ~pitch_y:5 ~margin:2 ~traps_per_channel:1 ();
         Layout.linear ~traps:6 ();
       ])

let small_random_grid rng =
  let px = 3 + Random.State.int rng 4 and py = 3 + Random.State.int rng 4 in
  let tpc = min (Random.State.int rng 3) (px - 2) in
  let l =
    Layout.make_grid
      ~width:(((1 + Random.State.int rng 3) * px) + 5)
      ~height:(((1 + Random.State.int rng 3) * py) + 5)
      ~pitch_x:px ~pitch_y:py ~margin:2 ~traps_per_channel:tpc ()
  in
  match Component.extract l with Ok c -> Graph.build c | Error e -> Alcotest.failf "extract: %s" e

(* A per-kind weight function: a random draw per kind (zeros, infinities,
   integers, half units and arbitrary fractions), the turn-blind QUALE
   base costs, or Eq. 2 under random congestion at turn cost 0 or 10. *)
let random_weight rng g =
  match Random.State.int rng 3 with
  | 0 ->
      let tbl = Hashtbl.create 64 in
      for i = 0 to Graph.num_edges g - 1 do
        let k = Graph.succ_kind g i in
        if not (Hashtbl.mem tbl k) then
          Hashtbl.add tbl k
            (match Random.State.int rng 5 with
            | 0 -> 0.0
            | 1 -> Float.infinity
            | 2 -> float_of_int (1 + Random.State.int rng 10)
            | 3 -> 0.5 *. float_of_int (Random.State.int rng 30)
            | _ -> Random.State.float rng 12.0)
      done;
      Hashtbl.find tbl
  | 1 -> Lower_bound.base_weight ~turn_cost:0.0
  | _ ->
      let comp = Graph.component g in
      let cap = 1 + Random.State.int rng 2 in
      let cong = Congestion.create comp ~channel_capacity:cap ~junction_capacity:cap in
      for r = 0 to Component.num_resources comp - 1 do
        if Random.State.int rng 4 = 0 && Congestion.is_free cong r then Congestion.acquire cong r
      done;
      Congestion.weight cong ~turn_cost:(if Random.State.bool rng then 10.0 else 0.0)

(* Same dist bits, hops, predecessors and settled set on every node, and
   the same [Path.t] to [target]. *)
let same_search g ws ws' ~src ~target =
  let n = Graph.num_nodes g in
  let ok = ref true in
  for v = 0 to n - 1 do
    let reached = ws.Workspace.reached.(v) = ws.Workspace.generation
    and reached' = ws'.Workspace.reached.(v) = ws'.Workspace.generation in
    if
      reached <> reached'
      || Workspace.is_settled ws v <> Workspace.is_settled ws' v
      || Int64.bits_of_float (Workspace.dist ws v) <> Int64.bits_of_float (Workspace.dist ws' v)
      || reached
         && (ws.Workspace.hops.(v) <> ws'.Workspace.hops.(v)
            || ws.Workspace.pred_edge.(v) <> ws'.Workspace.pred_edge.(v)
            || ws.Workspace.pred_node.(v) <> ws'.Workspace.pred_node.(v))
    then ok := false
  done;
  !ok
  && Option.equal Path.equal (Path.of_workspace ws g ~src ~dst:target)
       (Path.of_workspace ws' g ~src ~dst:target)

let prop_one_loop_equals_closure_reference =
  QCheck.Test.make ~name:"one relax loop = closure reference loop" ~count:300
    QCheck.(pair (int_bound 3) (int_bound 1_000_000))
    (fun (fi, seed) ->
      let rng = Random.State.make [| seed |] in
      let g =
        if fi < 3 then List.nth (Lazy.force loop_fabrics) fi else small_random_grid rng
      in
      let n = Graph.num_nodes g in
      let weight = random_weight rng g in
      let weights = tabulate g weight in
      let ws = Workspace.create () and ws' = Workspace.create () in
      List.for_all
        (fun _ ->
          let src = Random.State.int rng n in
          let target = Random.State.int rng n in
          (* full sweeps and point queries, with and without a table *)
          let dst = if Random.State.bool rng then -1 else target in
          let table =
            if Random.State.bool rng then None
            else
              Some
                (Lower_bound.toward
                   (Lower_bound.create g ~turn_cost:(if Random.State.bool rng then 10.0 else 0.0))
                   target)
          in
          reference_run_into ?heuristic:(Option.map Array.get table) ws g ~weight ~src ~dst;
          Dijkstra.run_into ?heuristic:table ws' g ~weights ~src ~dst;
          same_search g ws ws' ~src ~target)
        (List.init 6 Fun.id))

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

let seal_turn_cost = Timing.turn_cost_in_moves Timing.paper

(* Random congestion at capacity 1 or 2: each resource is taken with
   probability [density]%, by 1..capacity users.  Returns the congestion
   and its live weight array. *)
let random_congestion comp g rng ~cap ~density =
  let cong = Congestion.create comp ~channel_capacity:cap ~junction_capacity:cap in
  let ew = Array.make (Graph.num_edges g) 0.0 in
  Congestion.track_weights cong ~turn_cost:seal_turn_cost g ew;
  for r = 0 to Component.num_resources comp - 1 do
    if Random.State.int rng 100 < density then
      for _ = 1 to 1 + Random.State.int rng cap do
        if Congestion.is_free cong r then Congestion.acquire cong r
      done
  done;
  (cong, ew)

let seal_arb = QCheck.(quad (int_bound 3) (int_range 1 2) (int_bound 100) (int_bound 1_000_000))

(* plain closure-weight Dijkstra finds no path *)
let no_path ws g cong ~src ~dst =
  let weights = tabulate g (Congestion.weight cong ~turn_cost:seal_turn_cost) in
  Dijkstra.shortest_path ~workspace:ws g ~weights ~src ~dst = None

(* Whenever a two-hop seal holds, there is no path.  The fire counters
   let the caller reject a vacuous pass. *)
let prop_seals_imply_no_path ~source_fires ~dest_fires ~dest_only =
  QCheck.Test.make ~name:"a sealed search finds no path" ~count:80 seal_arb
    (fun (fi, cap, density, seed) ->
      let comp, g = List.nth (Lazy.force seal_fabrics) fi in
      let rng = Random.State.make [| seed |] in
      let cong, ew = random_congestion comp g rng ~cap ~density in
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
          (not (s || d)) || no_path ws g cong ~src ~dst)
        queries)

let test_seals_sound_and_fire () =
  let source_fires = ref 0 and dest_fires = ref 0 and dest_only = ref 0 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 14 |])
    (prop_seals_imply_no_path ~source_fires ~dest_fires ~dest_only);
  check_bool (Printf.sprintf "source seal fires (%d)" !source_fires) true (!source_fires > 0);
  check_bool (Printf.sprintf "destination seal fires (%d)" !dest_fires) true (!dest_fires > 0);
  check_bool (Printf.sprintf "destination seal alone fires (%d)" !dest_only) true (!dest_only > 0)

(* The pocket seal on the engine's queries, trap pairs: random pairs and
   pairs on one segment (where the seal must not fire, since the source
   sits inside the destination's pocket).  Whenever it holds, plain
   Dijkstra must find no path; [pocket_only] counts the queries it
   settles that neither two-hop seal does. *)
let prop_pocket_seal_implies_no_path ~pocket_only =
  QCheck.Test.make ~name:"a pocket-sealed search finds no path" ~count:80 seal_arb
    (fun (fi, cap, density, seed) ->
      let comp, g = List.nth (Lazy.force seal_fabrics) fi in
      let rng = Random.State.make [| seed |] in
      let cong, ew = random_congestion comp g rng ~cap ~density in
      let ntraps = Array.length (Component.traps comp) in
      let same_segment dt =
        let on = List.filter (fun t -> Graph.trap_segment g t = Graph.trap_segment g dt) (List.init ntraps Fun.id) in
        List.nth on (Random.State.int rng (List.length on))
      in
      let pairs =
        List.init 60 (fun _ -> (Random.State.int rng ntraps, Random.State.int rng ntraps))
        @ List.init 20 (fun _ ->
              let dt = Random.State.int rng ntraps in
              (same_segment dt, dt))
      in
      let ws = Workspace.create () in
      List.for_all
        (fun (st, dt) ->
          st = dt
          ||
          let src = Graph.trap_node g st and dst = Graph.trap_node g dt in
          let p = Seal.pocket_sealed g ew ~src_trap:st ~dst_trap:dt in
          if p && not (Seal.source_sealed g ew ~src ~dst || Seal.dest_sealed g ew ~src ~dst) then incr pocket_only;
          (not p) || no_path ws g cong ~src ~dst)
        pairs)

let test_pocket_seal_sound_and_fires () =
  let pocket_only = ref 0 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 36 |]) (prop_pocket_seal_implies_no_path ~pocket_only);
  check_bool (Printf.sprintf "pocket seal fires where neither two-hop seal does (%d)" !pocket_only) true
    (!pocket_only > 0)

(* The nodes that reach [dst] over finite edges, by a reverse flood over
   in-edges, or [None] once more than [cap] are found: a small closed
   pocket around [dst]. *)
let closed_pocket g ew ~dst ~cap =
  let seen = Hashtbl.create 32 and q = Queue.create () in
  Hashtbl.replace seen dst ();
  Queue.add dst q;
  let rec go () =
    if Hashtbl.length seen > cap then None
    else if Queue.is_empty q then Some (List.of_seq (Hashtbl.to_seq_keys seen))
    else begin
      let v = Queue.pop q in
      for k = Graph.pred_start g v to Graph.pred_stop g v - 1 do
        let i = Graph.pred_edge g k in
        let u = Graph.edge_src g i in
        if ew.(i) < Float.infinity && not (Hashtbl.mem seen u) then begin
          Hashtbl.replace seen u ();
          Queue.add u q
        end
      done;
      go ()
    end
  in
  go ()

(* The seals' one known miss: a closed pocket around [dst]'s tap segment
   [s] that spills past an end junction of [s] left unsaturated — it holds
   that junction and a cell of another segment beyond it, so its cut lies
   a layer further out than [s]'s pocket row.  On QUALE it is the corner
   case (one junction, one saturated segment); random saturation also
   closes wider spills on the grid and the ladder. *)
let spills comp g cong ~dst_trap pocket =
  let s = Graph.trap_segment g dst_trap in
  let code n = Component.cell_code comp (Graph.node_pos g n) in
  s >= 0
  && List.exists (fun n -> code n >= 0 && code n <> s && Component.is_segment comp (code n)) pocket
  && List.exists (fun n -> code n >= 0 && (not (Component.is_segment comp (code n))) && Congestion.is_free cong (code n)) pocket

(* The oracle: a reverse flood from [dst] over finite in-edges, capped at
   16 nodes, finds every small closed pocket that excludes [src].  Each
   one must be unroutable, and caught by one of the three seals or a
   spill.  [misses] counts spills. *)
let prop_closed_pockets_caught_or_spill ~closed ~misses =
  QCheck.Test.make ~name:"every small closed pocket is sealed or a spill" ~count:80 seal_arb
    (fun (fi, cap, density, seed) ->
      let comp, g = List.nth (Lazy.force seal_fabrics) fi in
      let rng = Random.State.make [| seed |] in
      let cong, ew = random_congestion comp g rng ~cap ~density in
      let ntraps = Array.length (Component.traps comp) in
      let ws = Workspace.create () in
      List.for_all
        (fun (st, dt) ->
          let src = Graph.trap_node g st and dst = Graph.trap_node g dt in
          match closed_pocket g ew ~dst ~cap:16 with
          | Some pocket when st <> dt && not (List.mem src pocket) ->
              incr closed;
              let sealed =
                Seal.pocket_sealed g ew ~src_trap:st ~dst_trap:dt
                || Seal.source_sealed g ew ~src ~dst || Seal.dest_sealed g ew ~src ~dst
              in
              if not sealed then incr misses;
              no_path ws g cong ~src ~dst && (sealed || spills comp g cong ~dst_trap:dt pocket)
          | Some _ | None -> true)
        (List.init 60 (fun _ -> (Random.State.int rng ntraps, Random.State.int rng ntraps))))

let test_closed_pockets () =
  let closed = ref 0 and misses = ref 0 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 36 |]) (prop_closed_pockets_caught_or_spill ~closed ~misses);
  check_bool (Printf.sprintf "closed pockets found (%d)" !closed) true (!closed > 0);
  check_bool (Printf.sprintf "spills occur (%d of %d)" !misses !closed) true (!misses > 0)

(* The spill the Table-1 workload hits, fixed: QUALE trap 10 sits on
   segment 0, between the corner junction (2,2) and junction (10,2).
   With (10,2) full, (2,2) free and the segment below (2,3) full, the
   pocket is closed but no seal fires: its cut is the saturated segment,
   one layer past segment 0's pocket row. *)
let test_corner_spill () =
  let comp, g = List.hd (Lazy.force seal_fabrics) in
  let cong = Congestion.create comp ~channel_capacity:1 ~junction_capacity:2 in
  let ew = Array.make (Graph.num_edges g) 0.0 in
  Congestion.track_weights cong ~turn_cost:seal_turn_cost g ew;
  let code x y = Component.cell_code comp (Coord.make x y) in
  check_int "trap 10's segment" 0 (Graph.trap_segment g 10);
  check_int "segment 0 starts at (3,2)" 0 (code 3 2);
  Congestion.acquire cong (code 10 2);
  Congestion.acquire cong (code 10 2);
  Congestion.acquire cong (code 2 3);
  let src = Graph.trap_node g 20 and dst = Graph.trap_node g 10 in
  check_bool "no seal fires" false
    (Seal.pocket_sealed g ew ~src_trap:20 ~dst_trap:10
    || Seal.source_sealed g ew ~src ~dst || Seal.dest_sealed g ew ~src ~dst);
  match closed_pocket g ew ~dst ~cap:16 with
  | None -> Alcotest.fail "no closed pocket"
  | Some pocket ->
      check_int "pocket size" 14 (List.length pocket);
      check_bool "a spill" true (spills comp g cong ~dst_trap:10 pocket);
      check_bool "unroutable" true (no_path (Workspace.create ()) g cong ~src ~dst)

(* ------------------------------------------------- canonical tie-break *)

(* The canonical path by brute force: every simple path from [src] to
   [dst] over finite [weights].  The least (cost, hops) wins; equal labels
   go to the least reversed CSR-index sequence, which is what taking the
   lowest-index tight in-edge, node by node back from [dst], selects.
   Least-label paths are simple (every edge adds a hop), so a partial path
   already at or above the best label is cut. *)
let brute_canonical g weights ~src ~dst =
  let on_path = Array.make (Graph.num_nodes g) false in
  let best = ref None in
  let rec dfs u cost hops rev =
    if u = dst then begin
      match !best with
      | Some (c, h, r) when (c, h, r) <= (cost, hops, rev) -> ()
      | Some _ | None -> best := Some (cost, hops, rev)
    end
    else
      match !best with
      | Some (c, h, _) when (c, h) <= (cost, hops) -> ()
      | Some _ | None ->
          on_path.(u) <- true;
          for i = Graph.succ_start g u to Graph.succ_stop g u - 1 do
            let v = Graph.succ_dst g i in
            if weights.(i) < Float.infinity && not on_path.(v) then
              dfs v (cost +. weights.(i)) (hops + 1) (i :: rev)
          done;
          on_path.(u) <- false
  in
  dfs src 0.0 0 [];
  !best

(* a search's answer in the same shape: (cost, hops, reversed edges) *)
let searched ws ~dst =
  if Workspace.dist ws dst = Float.infinity then None
  else
    let rec walk v =
      let e = ws.Workspace.pred_edge.(v) in
      if e < 0 then [] else e :: walk ws.Workspace.pred_node.(v)
    in
    Some (Workspace.dist ws dst, ws.Workspace.hops.(dst), walk dst)

let show_label = function
  | None -> "none"
  | Some (c, h, r) -> Printf.sprintf "%g/%d [%s]" c h (String.concat "," (List.map string_of_int r))

(* fabrics small enough to enumerate: a two-trap chain, a 13x11 grid, the
   2x2-junction tile and the ladder *)
let tiny_fabrics =
  lazy
    (List.map
       (fun l -> match Component.extract l with Ok c -> Graph.build c | Error e -> Alcotest.failf "extract: %s" e)
       [
         Layout.linear ~traps:2 ();
         Layout.make_grid ~width:13 ~height:11 ~pitch_x:4 ~pitch_y:3 ~margin:2 ~traps_per_channel:1 ();
         Layout.small_tile ();
         ladder;
       ])

(* Dijkstra, and A* under the exact to-[dst] distances or half of them
   (both consistent), return the brute-force canonical path on random
   integer weights, zeros and walls included. *)
let prop_searches_return_canonical_path =
  QCheck.Test.make ~name:"Dijkstra and A* return the brute-force canonical path" ~count:200
    QCheck.(pair (int_bound 3) (int_bound 1_000_000))
    (fun (fi, seed) ->
      let g = List.nth (Lazy.force tiny_fabrics) fi in
      let rng = Random.State.make [| seed |] in
      let n = Graph.num_nodes g in
      let weights =
        Array.init (Graph.num_edges g) (fun _ ->
            match Random.State.int rng 12 with 0 -> Float.infinity | k -> float_of_int (k mod 3))
      in
      let ws = Workspace.create () in
      List.for_all
        (fun _ ->
          let src = Random.State.int rng n and dst = Random.State.int rng n in
          let expect = brute_canonical g weights ~src ~dst in
          let to_dst = Array.init n (fun u -> (Dijkstra.distances g ~weights ~src:u).(dst)) in
          List.for_all
            (fun heuristic ->
              Dijkstra.run_into ?heuristic ws g ~weights ~src ~dst;
              let got = searched ws ~dst in
              got = expect
              || QCheck.Test.fail_reportf "src %d dst %d: expected %s, got %s" src dst (show_label expect)
                   (show_label got))
            [ None; Some to_dst; Some (Array.map (fun d -> d /. 2.0) to_dst) ])
        (List.init 8 Fun.id))

(* PathFinder's guided search (its negotiation weights, the destination's
   lower-bound table) returns the brute-force canonical path after random
   placements, iterations and history updates; every negotiation weight
   it reads stays on the half-unit grid. *)
let prop_guided_search_returns_canonical_path =
  QCheck.Test.make ~name:"PathFinder's guided search returns the brute-force canonical path" ~count:100
    QCheck.(pair (int_bound 3) (int_bound 1_000_000))
    (fun (fi, seed) ->
      let g = List.nth (Lazy.force tiny_fabrics) fi in
      let rng = Random.State.make [| seed |] in
      let n = Graph.num_nodes g in
      let turn_cost = float_of_int (Random.State.int rng 4) in
      let cap = 1 + Random.State.int rng 2 in
      let st = Pathfinder.create g ~turn_cost ~capacity:(fun _ -> cap) in
      let ws = Workspace.create () in
      for net = 0 to Random.State.int rng 4 do
        let src = Random.State.int rng n and dst = Random.State.int rng n in
        Dijkstra.run_into ws g ~weights:(Pathfinder.weights st) ~src ~dst;
        Option.iter (Pathfinder.place st net) (Path.of_workspace ws g ~src ~dst);
        if Random.State.bool rng then Pathfinder.next_iteration st;
        if Random.State.bool rng then Pathfinder.add_history st
      done;
      let weights = Pathfinder.weights st in
      let src = Random.State.int rng n and dst = Random.State.int rng n in
      let expect = brute_canonical g weights ~src ~dst in
      Dijkstra.run_into ~heuristic:(Lower_bound.toward (Lower_bound.create g ~turn_cost) dst) ws g ~weights ~src ~dst;
      let got = searched ws ~dst in
      (Array.for_all is_half_multiple weights || QCheck.Test.fail_report "weight off the half grid")
      && (got = expect
         || QCheck.Test.fail_reportf "src %d dst %d: expected %s, got %s" src dst (show_label expect)
              (show_label got)))

(* On QUALE 45x85 and the service benchmark's ingress grids, under random
   Eq. 2 congestion at turn cost 10 or 0, A* on the destination's
   lower-bound table returns Dijkstra's [Path.t] and dist bits. *)
let ingress_grids =
  lazy
    (List.map
       (fun l -> match Component.extract l with Ok c -> c | Error e -> Alcotest.failf "extract: %s" e)
       [
         Layout.quale_45x85 ();
         Layout.make_grid ~width:45 ~height:27 ~pitch_x:8 ~pitch_y:6 ~margin:2 ~traps_per_channel:1 ();
         Layout.make_grid ~width:29 ~height:21 ~pitch_x:6 ~pitch_y:5 ~margin:2 ~traps_per_channel:1 ();
         Layout.linear ~traps:40 ();
       ])

let prop_astar_is_dijkstra =
  QCheck.Test.make ~name:"A* = Dijkstra: same Path.t and dist bits" ~count:60
    QCheck.(pair (int_bound 3) (int_bound 1_000_000))
    (fun (fi, seed) ->
      let comp = List.nth (Lazy.force ingress_grids) fi in
      let g = Graph.build comp in
      let rng = Random.State.make [| seed |] in
      let cap = 1 + Random.State.int rng 2 in
      let cong = Congestion.create comp ~channel_capacity:cap ~junction_capacity:2 in
      let density = 1 + Random.State.int rng 3 in
      for r = 0 to Component.num_resources comp - 1 do
        if Random.State.int rng 4 < density && Congestion.is_free cong r then Congestion.acquire cong r
      done;
      let turn_cost = if Random.State.bool rng then 10.0 else 0.0 in
      let weights = tabulate g (Congestion.weight cong ~turn_cost) in
      let ntraps = Array.length (Component.traps comp) in
      let ws = Workspace.create () and ws' = Workspace.create () in
      Array.for_all is_half_multiple weights
      && List.for_all
           (fun _ ->
             let src = Graph.trap_node g (Random.State.int rng ntraps)
             and dst = Graph.trap_node g (Random.State.int rng ntraps) in
             Dijkstra.run_into ws g ~weights ~src ~dst;
             Dijkstra.run_into ~heuristic:(Lower_bound.toward (Lower_bound.create g ~turn_cost) dst) ws' g ~weights ~src ~dst;
             Int64.equal
               (Int64.bits_of_float (Workspace.dist ws dst))
               (Int64.bits_of_float (Workspace.dist ws' dst))
             && Option.equal Path.equal (Path.of_workspace ws g ~src ~dst) (Path.of_workspace ws' g ~src ~dst))
           (List.init 10 Fun.id))

(* Off the half-unit grid the queue order stays exact.  On the tiny
   fabrics, with near ties (10 beside 10 + 2^-24, zeros, unit steps) whose
   sums are all exact, Dijkstra and A* under the exact to-[dst] distances
   return the brute-force canonical path; a cheaper path with more hops
   is the case a packed key gets wrong off the grid.  Under
   arbitrary fractions and 10 + 1e-6, Dijkstra's label at [dst] is the
   brute-force least (cost, hops). *)
let prop_least_label_off_grid =
  QCheck.Test.make ~name:"Dijkstra and A* return the least label off the half grid" ~count:1500
    QCheck.(triple (int_bound 3) bool (int_bound 1_000_000))
    (fun (fi, exact, seed) ->
      let g = List.nth (Lazy.force tiny_fabrics) fi in
      let rng = Random.State.make [| seed |] in
      let n = Graph.num_nodes g in
      let weights =
        Array.init (Graph.num_edges g) (fun _ ->
            match Random.State.int rng 10 with
            | 0 -> Float.infinity
            | 1 | 2 | 3 -> 0.0
            | 4 -> if exact then 1.0 else 10.000001
            | 5 | 6 -> 10.0
            | _ -> if exact then 10.0 +. ldexp 1.0 (-24) else Random.State.float rng 12.0)
      in
      let ws = Workspace.create () in
      let show = function None -> "none" | Some (c, h, _) -> Printf.sprintf "%.17g/%d" c h in
      List.for_all
        (fun _ ->
          let src = Random.State.int rng n and dst = Random.State.int rng n in
          let expect = brute_canonical g weights ~src ~dst in
          let label = Option.map (fun (c, h, _) -> (c, h)) in
          let heuristics =
            if exact then [ None; Some (Array.init n (fun u -> (Dijkstra.distances g ~weights ~src:u).(dst))) ]
            else [ None ]
          in
          List.for_all
            (fun heuristic ->
              Dijkstra.run_into ?heuristic ws g ~weights ~src ~dst;
              let got = searched ws ~dst in
              (if exact then got = expect else label got = label expect)
              || QCheck.Test.fail_reportf "src %d dst %d: expected %s, got %s" src dst (show expect) (show got))
            heuristics)
        (List.init 8 Fun.id))

(* A turn cost a hair above 10 makes a path with one more turn and ten
   less in channel weight dearer by the hair, though it may have fewer
   hops.  On QUALE and the ingress grids, under random Eq. 2 congestion,
   Dijkstra toward a trap returns the plain least cost (a sweep's), and so
   does A* on the destination's table: exactly at 10 + 2^-24, whose sums
   are exact, and within 1e-9 (the rounding of cost + h, far below the
   1e-6 step) at 10.000001. *)
let test_near_tie_turn_cost () =
  List.iteri
    (fun fi comp ->
      let g = Graph.build comp in
      let ntraps = Array.length (Component.traps comp) in
      let rng = Random.State.make [| 32 + fi |] in
      List.iter
        (fun turn_cost ->
          let ws = Workspace.create () in
          for _ = 1 to 8 do
            let cong = Congestion.create comp ~channel_capacity:2 ~junction_capacity:2 in
            for r = 0 to Component.num_resources comp - 1 do
              if Random.State.int rng 3 = 0 && Congestion.is_free cong r then Congestion.acquire cong r
            done;
            let weights = tabulate g (Congestion.weight cong ~turn_cost) in
            let src = Graph.trap_node g (Random.State.int rng ntraps) in
            let least = Dijkstra.distances g ~weights ~src in
            for _ = 1 to 10 do
              let dst = Graph.trap_node g (Random.State.int rng ntraps) in
              let what = Printf.sprintf "fabric %d, turn %.17g, %d -> %d" fi turn_cost src dst in
              Dijkstra.run_into ws g ~weights ~src ~dst;
              Alcotest.(check (float 0.0)) (what ^ ": Dijkstra") least.(dst) (Workspace.dist ws dst);
              Dijkstra.run_into ~heuristic:(Lower_bound.toward (Lower_bound.create g ~turn_cost) dst) ws g ~weights ~src ~dst;
              let tol = if turn_cost = 10.0 +. ldexp 1.0 (-24) then 0.0 else 1e-9 in
              Alcotest.(check (float tol)) (what ^ ": A*") least.(dst) (Workspace.dist ws dst)
            done
          done)
        [ 10.0 +. ldexp 1.0 (-24); 10.000001 ])
    (Lazy.force ingress_grids)

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
        Alcotest.test_case "cell index and rows on fixed fabrics" `Quick test_resource_numbering_fabrics
        :: qsuite [ prop_resource_numbering_grids ] );
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
      ( "seal",
        [
          Alcotest.test_case "sealed searches find no path; both seals fire" `Quick test_seals_sound_and_fire;
          Alcotest.test_case "pocket-sealed searches find no path; the pocket seal fires alone" `Quick
            test_pocket_seal_sound_and_fires;
          Alcotest.test_case "small closed pockets: sealed or a spill" `Quick test_closed_pockets;
          Alcotest.test_case "the corner spill on QUALE" `Quick test_corner_spill;
        ] );
      ("one loop", qsuite [ prop_one_loop_equals_closure_reference ]);
      ( "canonical",
        qsuite
          [
            prop_searches_return_canonical_path;
            prop_guided_search_returns_canonical_path;
            prop_astar_is_dijkstra;
            prop_least_label_off_grid;
          ]
        @ [ Alcotest.test_case "near-tie turn cost: least cost" `Quick test_near_tie_turn_cost ] );
    ]
