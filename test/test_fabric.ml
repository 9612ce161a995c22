(* Tests for the fabric model: cell vocabulary, layout parsing/generation
   round-trips, component extraction (junctions, channel segments, traps) and
   the turn-aware routing graph of paper Figure 5. *)

module Coord = Ion_util.Coord
open Fabric

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let xy = Coord.make

(* A hand-written fabric: two junctions joined by a horizontal channel, one
   vertical stub each, one trap in the middle.

       |   T |
       J---CJ
       |    |
*)
let tiny_src = "  |  T |\n  J---CJ\n  |    |\n"

let tiny () =
  match Layout.parse tiny_src with Ok l -> l | Error e -> Alcotest.failf "tiny parse: %s" e

let extract l =
  match Component.extract l with Ok c -> c | Error e -> Alcotest.failf "extract: %s" e

(* ----------------------------------------------------------------- Cell *)

let test_cell_chars () =
  check_bool "J" true (Cell.to_char Cell.Junction = 'J');
  check_bool "display C" true (Cell.to_display_char (Cell.Channel Cell.Horizontal) = 'C');
  check_bool "oriented -" true (Cell.to_char (Cell.Channel Cell.Horizontal) = '-');
  check_bool "oriented |" true (Cell.to_char (Cell.Channel Cell.Vertical) = '|');
  check_bool "walkable" true (Cell.is_walkable Cell.Junction);
  check_bool "trap not walkable" false (Cell.is_walkable Cell.Trap);
  check_bool "channel is channel" true (Cell.is_channel (Cell.Channel Cell.Vertical))

(* --------------------------------------------------------------- Layout *)

let test_layout_parse_tiny () =
  let l = tiny () in
  check_int "width" 8 (Layout.width l);
  check_int "height" 3 (Layout.height l);
  check_bool "junction" true (Cell.equal (Layout.get l (xy 2 1)) Cell.Junction);
  check_bool "h channel" true (Cell.equal (Layout.get l (xy 4 1)) (Cell.Channel Cell.Horizontal));
  check_bool "v channel" true (Cell.equal (Layout.get l (xy 2 0)) (Cell.Channel Cell.Vertical));
  check_bool "trap" true (Cell.equal (Layout.get l (xy 5 0)) Cell.Trap);
  check_bool "oob is empty" true (Cell.equal (Layout.get l (xy 100 100)) Cell.Empty)

let test_layout_parse_c_inference () =
  (* 'C' between junctions horizontally is horizontal; vertically vertical *)
  match Layout.parse "JCJ\n" with
  | Error e -> Alcotest.fail e
  | Ok l -> (
      check_bool "inferred horizontal" true
        (Cell.equal (Layout.get l (xy 1 0)) (Cell.Channel Cell.Horizontal));
      match Layout.parse "J\nC\nJ\n" with
      | Error e -> Alcotest.fail e
      | Ok l ->
          check_bool "inferred vertical" true
            (Cell.equal (Layout.get l (xy 0 1)) (Cell.Channel Cell.Vertical)))

let test_layout_parse_errors () =
  (match Layout.parse "" with Ok _ -> Alcotest.fail "empty accepted" | Error _ -> ());
  (match Layout.parse "JXJ\n" with Ok _ -> Alcotest.fail "bad char accepted" | Error _ -> ());
  (match Layout.parse "C\n" with Ok _ -> Alcotest.fail "isolated channel accepted" | Error _ -> ());
  (match Layout.parse "T\n" with Ok _ -> Alcotest.fail "isolated trap accepted" | Error _ -> ());
  (* a crossing of channels without a junction is ambiguous *)
  match Layout.parse " | \n-C-\n | \n" with
  | Ok _ -> Alcotest.fail "ambiguous crossing accepted"
  | Error msg -> check_bool "mentions ambiguity" true (String.length msg > 0)

let test_layout_roundtrip () =
  let l = tiny () in
  match Layout.parse (Layout.to_ascii l) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok l' -> check_bool "roundtrip equal" true (Layout.equal l l')

let test_layout_quale_dims () =
  let l = Layout.quale_45x85 () in
  check_int "width" 85 (Layout.width l);
  check_int "height" 45 (Layout.height l);
  (* structure: 7 junction rows x 11 junction columns *)
  check_int "junctions" 77 (Layout.count l (Cell.equal Cell.Junction));
  check_bool "has traps" true (Layout.count l (Cell.equal Cell.Trap) > 100);
  check_bool "has channels" true (Layout.count l Cell.is_channel > 800)

let test_layout_quale_roundtrip () =
  let l = Layout.quale_45x85 () in
  match Layout.parse (Layout.to_ascii l) with
  | Error e -> Alcotest.failf "quale roundtrip: %s" e
  | Ok l' -> check_bool "roundtrip equal" true (Layout.equal l l')

let test_layout_generator_guards () =
  let bad f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () -> Layout.make_grid ~width:0 ~height:5 ~pitch_x:4 ~pitch_y:4 ~margin:1 ~traps_per_channel:1 ());
  bad (fun () -> Layout.make_grid ~width:20 ~height:20 ~pitch_x:2 ~pitch_y:4 ~margin:1 ~traps_per_channel:1 ());
  bad (fun () -> Layout.make_grid ~width:5 ~height:5 ~pitch_x:8 ~pitch_y:8 ~margin:1 ~traps_per_channel:1 ())

let test_layout_center () =
  let l = Layout.quale_45x85 () in
  let c = Layout.center l in
  check_int "cx" 42 c.Coord.x;
  check_int "cy" 22 c.Coord.y

let test_layout_linear () =
  let l = Layout.linear ~traps:6 () in
  check_int "height" 3 (Layout.height l);
  check_int "traps" 6 (Layout.count l (Cell.equal Cell.Trap));
  match Component.extract l with
  | Error e -> Alcotest.fail e
  | Ok c ->
      check_int "no junctions" 0 (Array.length (Component.junctions c));
      check_int "single channel segment" 1 (Array.length (Component.segments c));
      (* every trap taps the channel and all are mutually reachable *)
      let g = Graph.build c in
      let dist = ref 0 in
      (match
         Router.Dijkstra.shortest_path g
           ~weights:(Router.Lower_bound.base_weights g ~turn_cost:10.0)
           ~src:(Graph.trap_node g 0) ~dst:(Graph.trap_node g 5)
       with
      | Some r -> dist := int_of_float r.Router.Dijkstra.cost
      | None -> Alcotest.fail "linear fabric disconnected");
      check_bool "positive route" true (!dist > 0)

let test_layout_linear_guard () =
  match Layout.linear ~traps:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single-trap linear accepted"

(* ------------------------------------------------------------ Component *)

let test_component_tiny () =
  let c = extract (tiny ()) in
  check_int "junctions" 2 (Array.length (Component.junctions c));
  check_int "traps" 1 (Array.length (Component.traps c));
  (* segments: 1 horizontal (length 4) + 4 vertical stubs (length 1) *)
  let segs = Component.segments c in
  let h = Array.to_list segs |> List.filter (fun s -> s.Component.orientation = Cell.Horizontal) in
  let v = Array.to_list segs |> List.filter (fun s -> s.Component.orientation = Cell.Vertical) in
  check_int "one horizontal segment" 1 (List.length h);
  check_int "horizontal length" 4 (Array.length (List.hd h).Component.cells);
  check_int "four vertical stubs" 4 (List.length v)

let test_component_lookup () =
  let c = extract (tiny ()) in
  check_bool "segment_at channel" true (Component.segment_at c (xy 4 1) <> None);
  check_bool "segment_at junction" true (Component.segment_at c (xy 2 1) = None);
  check_bool "junction_at" true (Component.junction_at c (xy 2 1) <> None);
  check_bool "trap_at" true (Component.trap_at c (xy 5 0) <> None);
  (* the trap's tap is the channel cell beneath it *)
  let tr = (Component.traps c).(0) in
  check_bool "tap" true (Coord.equal tr.Component.tap (xy 5 1))

let test_component_segment_cells_ordered () =
  let c = extract (tiny ()) in
  let h =
    Array.to_list (Component.segments c)
    |> List.find (fun s -> s.Component.orientation = Cell.Horizontal)
  in
  let xs = Array.to_list h.Component.cells |> List.map (fun (p : Coord.t) -> p.Coord.x) in
  check_bool "west-to-east order" true (xs = List.sort compare xs)

let test_component_quale () =
  let c = extract (Layout.quale_45x85 ()) in
  check_int "junctions" 77 (Array.length (Component.junctions c));
  (* horizontal spans: 7 rows x 10 spans, each split by 1 trap tap?  taps do
     not split segments; expect exactly 70 horizontal segments of length 7 *)
  let segs = Array.to_list (Component.segments c) in
  let h = List.filter (fun s -> s.Component.orientation = Cell.Horizontal) segs in
  let v = List.filter (fun s -> s.Component.orientation = Cell.Vertical) segs in
  check_int "horizontal segments" 70 (List.length h);
  List.iter (fun s -> check_int "h length" 7 (Array.length s.Component.cells)) h;
  check_int "vertical segments" 66 (List.length v);
  List.iter (fun s -> check_int "v length" 6 (Array.length s.Component.cells)) v

let test_component_nearest_traps () =
  let c = extract (Layout.quale_45x85 ()) in
  let center = Layout.center (Component.layout c) in
  match Component.nearest_traps c center with
  | [] -> Alcotest.fail "no traps"
  | first :: rest ->
      let traps = Component.traps c in
      let d t = Coord.manhattan center traps.(t).Component.tpos in
      let prev = ref (d first) in
      List.iter
        (fun t ->
          check_bool "non-decreasing distance" true (d t >= !prev);
          prev := d t)
        rest

(* ---------------------------------------------------------------- Graph *)

let test_graph_tiny_structure () =
  let c = extract (tiny ()) in
  let g = Graph.build c in
  (* nodes: 8 channel cells + 2 junctions x 2 + 1 trap = 13 *)
  check_int "nodes" 13 (Graph.num_nodes g);
  check_bool "has edges" true (Graph.num_edges g > 0);
  (* trap node exists and has exactly one neighbour (its tap) *)
  let tn = Graph.trap_node g 0 in
  check_int "trap degree" 1 (List.length (Graph.adj g tn));
  check_bool "trap orientation none" true (Graph.node_orientation g tn = None)

let test_graph_turn_edges () =
  let c = extract (tiny ()) in
  let g = Graph.build c in
  (* every junction contributes exactly one turn edge pair *)
  let turns = ref 0 in
  for n = 0 to Graph.num_nodes g - 1 do
    List.iter (fun e -> match e.Graph.kind with Graph.Turn _ -> incr turns | _ -> ()) (Graph.adj g n)
  done;
  check_int "turn edges (directed)" 4 !turns

let test_graph_no_turn_outside_junction () =
  (* an L of channels without a junction must stay disconnected *)
  match Layout.parse "J-\n |\n J\n" with
  | Error _ -> () (* the '|' at (1,1) has a '-' west neighbour: still parses *)
  | Ok l -> (
      match Component.extract l with
      | Error _ -> ()
      | Ok c ->
          let g = Graph.build c in
          (* the horizontal channel node and vertical channel node are not
             adjacent *)
          let h_node = ref None and v_node = ref None in
          for n = 0 to Graph.num_nodes g - 1 do
            if Coord.equal (Graph.node_pos g n) (xy 1 0) then h_node := Some n;
            if Coord.equal (Graph.node_pos g n) (xy 1 1) then v_node := Some n
          done;
          match (!h_node, !v_node) with
          | Some hn, Some vn ->
              check_bool "no direct edge" true
                (not (List.exists (fun e -> e.Graph.dst = vn) (Graph.adj g hn)))
          | _ -> Alcotest.fail "nodes not found")

let test_graph_edges_symmetric () =
  let c = extract (Layout.quale_45x85 ()) in
  let g = Graph.build c in
  for n = 0 to Graph.num_nodes g - 1 do
    List.iter
      (fun e ->
        let back = List.exists (fun e' -> e'.Graph.dst = n) (Graph.adj g e.Graph.dst) in
        if not back then
          Alcotest.failf "edge %d -> %d has no reverse" n e.Graph.dst)
      (Graph.adj g n)
  done

(* The reverse and resource CSR indexes against the forward adjacency:
   each edge is listed exactly once as an in-edge of its destination and,
   for channel and junction edges, exactly once under its resource, in
   ascending edge-index order. *)
let test_graph_reverse_and_resource_csr () =
  let c = extract (Layout.quale_45x85 ()) in
  let g = Graph.build c in
  let m = Graph.num_edges g in
  let as_in = Array.make m 0 and as_res = Array.make m 0 in
  let ascending start stop get =
    for k = start to stop - 2 do
      if get k >= get (k + 1) then Alcotest.fail "CSR row not in ascending edge order"
    done
  in
  for n = 0 to Graph.num_nodes g - 1 do
    for i = Graph.succ_start g n to Graph.succ_stop g n - 1 do
      check_int "edge source" n (Graph.edge_src g i)
    done;
    ascending (Graph.pred_start g n) (Graph.pred_stop g n) (Graph.pred_edge g);
    for k = Graph.pred_start g n to Graph.pred_stop g n - 1 do
      let i = Graph.pred_edge g k in
      check_int "in-edge destination" n (Graph.succ_dst g i);
      as_in.(i) <- as_in.(i) + 1
    done
  done;
  (* a segment's row holds only [Chan] edges of that segment, a junction's
     only [Junc] edges of that junction *)
  let owns r = function
    | Graph.Chan r' -> r = r' && Component.is_segment c r
    | Graph.Junc r' -> r = r' && not (Component.is_segment c r)
    | Graph.Turn _ | Graph.Tap _ -> false
  in
  for r = 0 to Component.num_resources c - 1 do
    ascending (Graph.resource_edges_start g r) (Graph.resource_edges_stop g r) (Graph.resource_edge g);
    for k = Graph.resource_edges_start g r to Graph.resource_edges_stop g r - 1 do
      let i = Graph.resource_edge g k in
      check_bool "edge under its own resource" true (owns r (Graph.succ_kind g i));
      as_res.(i) <- as_res.(i) + 1
    done
  done;
  for i = 0 to m - 1 do
    check_int "listed once as an in-edge" 1 as_in.(i);
    let weighted = match Graph.succ_kind g i with Graph.Chan _ | Graph.Junc _ -> 1 | Graph.Turn _ | Graph.Tap _ -> 0 in
    check_int "listed under its resource iff weighted by one" weighted as_res.(i)
  done

(* The pocket CSR against its definition: segment [s]'s pocket is its
   cells, the traps tapped on them and the junction nodes just past its
   two ends, and its row must list exactly the edges from outside into
   it, every one a [Junc] step into one of those junctions.  Trap tap
   segments are checked against [Component.segment_at].  The ring's trap
   is tapped on a junction, so its step into the junction is a cut edge
   of both segments that end there. *)
let test_graph_pocket_csr () =
  List.iter
    (fun lay ->
      let c = extract lay in
      let g = Graph.build c in
      Array.iter
        (fun (tr : Component.trap) ->
          check_int "trap tap segment"
            (Option.value ~default:(-1) (Component.segment_at c tr.Component.tap))
            (Graph.trap_segment g tr.Component.tid))
        (Component.traps c);
      Array.iter
        (fun (seg : Component.segment) ->
          let cells = seg.Component.cells in
          let before, after =
            match seg.Component.orientation with
            | Cell.Horizontal -> (Coord.West, Coord.East)
            | Cell.Vertical -> (Coord.North, Coord.South)
          in
          let ends =
            List.filter_map
              (fun p -> Component.junction_at c p)
              [ Coord.step cells.(0) before; Coord.step cells.(Array.length cells - 1) after ]
          in
          let inside n =
            let p = Graph.node_pos g n in
            match (Component.trap_at c p, Component.junction_at c p) with
            | Some tid, _ -> Array.exists (Coord.equal (Component.traps c).(tid).Component.tap) cells
            | None, Some j -> List.mem j ends
            | None, None -> Array.exists (Coord.equal p) cells
          in
          let expected =
            List.filter
              (fun i -> inside (Graph.succ_dst g i) && not (inside (Graph.edge_src g i)))
              (List.init (Graph.num_edges g) Fun.id)
          in
          let s = seg.Component.sid in
          let row =
            List.init (Graph.pocket_edges_stop g s - Graph.pocket_edges_start g s) (fun k ->
                Graph.pocket_edge g (Graph.pocket_edges_start g s + k))
          in
          Alcotest.(check (list int)) (Printf.sprintf "segment %d pocket in-edges" s) expected
            (List.sort compare row);
          List.iter
            (fun i ->
              match Graph.succ_kind g i with
              | Graph.Junc r ->
                  check_bool "a step into an end junction" true
                    (List.mem (r - Array.length (Component.segments c)) ends)
              | Graph.Chan _ | Graph.Turn _ | Graph.Tap _ -> Alcotest.fail "pocket in-edge is not a junction step")
            row)
        (Component.segments c))
    [
      tiny ();
      (match Layout.parse (String.concat "\n" [ " T    "; " J--J "; " |  | "; " J--J " ]) with
      | Ok l -> l
      | Error e -> Alcotest.failf "ring parse: %s" e);
      Layout.quale_45x85 ();
      Layout.make_grid ~width:23 ~height:17 ~pitch_x:7 ~pitch_y:5 ~margin:2 ~traps_per_channel:1 ();
      Layout.linear ~traps:6 ();
    ]

let test_graph_quale_connected () =
  (* BFS from trap 0 must reach every trap: the fabric is one component *)
  let c = extract (Layout.quale_45x85 ()) in
  let g = Graph.build c in
  let seen = Array.make (Graph.num_nodes g) false in
  let q = Queue.create () in
  Queue.add (Graph.trap_node g 0) q;
  seen.(Graph.trap_node g 0) <- true;
  while not (Queue.is_empty q) do
    let n = Queue.pop q in
    List.iter
      (fun e ->
        if not seen.(e.Graph.dst) then begin
          seen.(e.Graph.dst) <- true;
          Queue.add e.Graph.dst q
        end)
      (Graph.adj g n)
  done;
  Array.iteri
    (fun tid _ ->
      check_bool (Printf.sprintf "trap %d reachable" tid) true seen.(Graph.trap_node g tid))
    (Component.traps c)

let test_graph_junction_split () =
  let c = extract (tiny ()) in
  let g = Graph.build c in
  (* junction at (2,1) appears as two nodes with different orientations *)
  let nodes = ref [] in
  for n = 0 to Graph.num_nodes g - 1 do
    if Coord.equal (Graph.node_pos g n) (xy 2 1) then nodes := n :: !nodes
  done;
  check_int "two nodes per junction" 2 (List.length !nodes);
  let orients = List.map (Graph.node_orientation g) !nodes in
  check_bool "H and V" true
    (List.mem (Some Cell.Horizontal) orients && List.mem (Some Cell.Vertical) orients)

(* ----------------------------------------------------------------- Lint *)

(* The one fabric lint, [Analysis.Fabric_check], over the structural and
   capacity findings [Lint] supplies. *)
let lint ?num_qubits lay = Analysis.Fabric_check.check ?num_qubits lay
let lint_clean ?num_qubits lay = Analysis.Finding.is_clean (lint ?num_qubits lay)

let test_lint_clean_fabrics () =
  check_bool "45x85 clean" true (lint_clean ~num_qubits:23 (Layout.quale_45x85 ()));
  check_bool "small tile clean for 2 qubits" true (lint_clean ~num_qubits:2 (Layout.small_tile ()))

let test_lint_disconnected () =
  let lay = match Layout.parse "J-JT\n\nJ-JT\n" with Ok l -> l | Error e -> Alcotest.fail e in
  let findings = lint lay in
  check_bool "errors" false (lint_clean lay);
  check_bool "mentions disconnection" true
    (List.exists
       (fun f ->
         f.Analysis_finding.severity = Analysis_finding.Error
         &&
         let m = f.Analysis_finding.message in
         String.length m > 12 && String.sub m 0 12 = "fabric is di")
       findings)

let test_lint_capacity () =
  let lay = Layout.small_tile () in
  (* 4 traps: 10 qubits is an error, 3 qubits a warning *)
  check_bool "overfull is error" false (lint_clean ~num_qubits:10 lay);
  let warnings = lint ~num_qubits:3 lay in
  check_bool "tight is warning" true
    (List.exists (fun f -> f.Analysis_finding.severity = Analysis_finding.Warning) warnings)

let test_lint_linear_info () =
  let findings = lint (Layout.linear ~traps:4 ()) in
  check_bool "no errors" true (lint_clean (Layout.linear ~traps:4 ()));
  check_bool "junction-free hint" true (List.exists (fun f -> f.Analysis_finding.severity = Analysis_finding.Hint) findings)

let test_lint_pp () =
  let findings = lint ~num_qubits:10 (Layout.small_tile ()) in
  List.iter
    (fun f ->
      check_bool "prints" true (String.length (Format.asprintf "%a" Analysis.Finding.pp f) > 0))
    findings

(* --------------------------------------------------------------- Render *)

let test_render_marks () =
  let l = tiny () in
  let s = Render.with_marks l [ (xy 0 0, '@') ] in
  check_bool "mark present" true (s.[0] = '@')

let test_render_qubits () =
  let l = tiny () in
  let s = Render.with_qubits l [ (3, xy 5 0) ] in
  (* row 0 is 8 chars + newline; index of (5,0) is 5 *)
  check_bool "digit rendered" true (s.[5] = '3')

let test_render_path () =
  let l = tiny () in
  let s = Render.path l [ xy 2 0; xy 2 1; xy 2 1; xy 3 1; xy 4 1 ] in
  check_bool "S at start" true (s.[2] = 'S');
  (* (4,1) is at row 1: index 9 + 4 = 13 *)
  check_bool "D at end" true (s.[13] = 'D');
  check_bool "star between" true (s.[9 + 3] = '*')

(* property: random generated grids parse back and extract cleanly *)
let prop_generated_grids_extract =
  QCheck.Test.make ~name:"generated grids roundtrip and extract" ~count:50
    QCheck.(quad (3 -- 12) (3 -- 12) (0 -- 2) (int_bound 1000))
    (fun (px, py, tpc, _salt) ->
      let tpc = min tpc (px - 2) in
      let w = (3 * px) + 5 and h = (3 * py) + 5 in
      let l = Layout.make_grid ~width:w ~height:h ~pitch_x:px ~pitch_y:py ~margin:2 ~traps_per_channel:tpc () in
      match Layout.parse (Layout.to_ascii l) with
      | Error _ -> false
      | Ok l' -> (
          Layout.equal l l'
          &&
          match Component.extract l with
          | Error _ -> false
          | Ok c ->
              let g = Graph.build c in
              Graph.num_nodes g > 0))

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "fabric"
    [
      ("cell", [ Alcotest.test_case "chars" `Quick test_cell_chars ]);
      ( "layout",
        [
          Alcotest.test_case "parse tiny" `Quick test_layout_parse_tiny;
          Alcotest.test_case "C inference" `Quick test_layout_parse_c_inference;
          Alcotest.test_case "parse errors" `Quick test_layout_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_layout_roundtrip;
          Alcotest.test_case "quale dimensions" `Quick test_layout_quale_dims;
          Alcotest.test_case "quale roundtrip" `Quick test_layout_quale_roundtrip;
          Alcotest.test_case "generator guards" `Quick test_layout_generator_guards;
          Alcotest.test_case "center" `Quick test_layout_center;
          Alcotest.test_case "linear" `Quick test_layout_linear;
          Alcotest.test_case "linear guard" `Quick test_layout_linear_guard;
        ] );
      ( "component",
        [
          Alcotest.test_case "tiny extraction" `Quick test_component_tiny;
          Alcotest.test_case "lookups" `Quick test_component_lookup;
          Alcotest.test_case "segment order" `Quick test_component_segment_cells_ordered;
          Alcotest.test_case "quale extraction" `Quick test_component_quale;
          Alcotest.test_case "nearest traps sorted" `Quick test_component_nearest_traps;
        ] );
      ( "graph",
        [
          Alcotest.test_case "tiny structure" `Quick test_graph_tiny_structure;
          Alcotest.test_case "turn edges" `Quick test_graph_turn_edges;
          Alcotest.test_case "no turn outside junctions" `Quick test_graph_no_turn_outside_junction;
          Alcotest.test_case "edges symmetric" `Quick test_graph_edges_symmetric;
          Alcotest.test_case "quale connected" `Quick test_graph_quale_connected;
          Alcotest.test_case "junction split" `Quick test_graph_junction_split;
          Alcotest.test_case "reverse and resource CSR" `Quick test_graph_reverse_and_resource_csr;
          Alcotest.test_case "pocket CSR" `Quick test_graph_pocket_csr;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean fabrics" `Quick test_lint_clean_fabrics;
          Alcotest.test_case "disconnected" `Quick test_lint_disconnected;
          Alcotest.test_case "capacity" `Quick test_lint_capacity;
          Alcotest.test_case "linear info" `Quick test_lint_linear_info;
          Alcotest.test_case "pp" `Quick test_lint_pp;
        ] );
      ( "render",
        [
          Alcotest.test_case "marks" `Quick test_render_marks;
          Alcotest.test_case "qubits" `Quick test_render_qubits;
          Alcotest.test_case "path" `Quick test_render_path;
        ] );
      ("properties", qsuite [ prop_generated_grids_extract ]);
    ]
