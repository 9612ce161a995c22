(* Tests for the Physical Machine Description (PMD) layer: parsing of each
   fabric kind, round-trips through to_string, diagnostics, and end-to-end
   mapping with a custom machine. *)

open Qspr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

let parse_exn src = match Pmd.parse src with Ok p -> p | Error e -> Alcotest.failf "pmd: %s" e

let grid_src =
  {|# a small custom machine
name = testbed
t_move_us = 2
t_turn_us = 30
t_gate1_us = 5   t_gate2_us = 50
channel_capacity = 3
fabric = grid
width = 30  height = 20
pitch_x = 6  pitch_y = 5
margin = 2  traps_per_channel = 1
|}

let test_parse_grid () =
  let p = parse_exn grid_src in
  check_string "name" "testbed" p.Pmd.name;
  check_float "t_move" 2.0 p.Pmd.timing.Router.Timing.t_move;
  check_float "t_turn" 30.0 p.Pmd.timing.Router.Timing.t_turn;
  check_float "t_gate2" 50.0 p.Pmd.timing.Router.Timing.t_gate2;
  check_int "channel capacity" 3 p.Pmd.channel_capacity;
  check_int "junction capacity defaults" 2 p.Pmd.junction_capacity;
  check_int "fabric width" 30 (Fabric.Layout.width p.Pmd.layout);
  check_int "fabric height" 20 (Fabric.Layout.height p.Pmd.layout)

let test_parse_linear () =
  let p = parse_exn "name = wire\nfabric = linear\ntraps = 8\n" in
  check_int "height 3" 3 (Fabric.Layout.height p.Pmd.layout);
  check_int "traps" 8 (Fabric.Layout.count p.Pmd.layout (Fabric.Cell.equal Fabric.Cell.Trap))

let test_parse_inline () =
  let src = "name = tiny\nfabric = inline\n--- fabric ---\n  |  T |\n  J---CJ\n  |    |\n" in
  let p = parse_exn src in
  check_int "junctions" 2 (Fabric.Layout.count p.Pmd.layout (Fabric.Cell.equal Fabric.Cell.Junction))

let test_defaults_are_paper () =
  let p = parse_exn "name = defaults\n" in
  check_float "t_move" 1.0 p.Pmd.timing.Router.Timing.t_move;
  check_int "capacity" 2 p.Pmd.channel_capacity;
  check_int "default grid is the 45x85" 85 (Fabric.Layout.width p.Pmd.layout)

let expect_error src fragment =
  match Pmd.parse src with
  | Ok _ -> Alcotest.failf "expected error containing %S" fragment
  | Error msg ->
      let contains s sub =
        let n = String.length sub in
        let found = ref false in
        for i = 0 to String.length s - n do
          if String.sub s i n = sub then found := true
        done;
        !found
      in
      check_bool (Printf.sprintf "%S in %S" fragment msg) true (contains msg fragment)

let test_parse_errors () =
  expect_error "frobnicate = 3\n" "unknown key";
  expect_error "t_move_us = fast\n" "expected a number";
  expect_error "channel_capacity = 0\n" "positive";
  expect_error "fabric = moebius\n" "unknown fabric kind";
  expect_error "fabric = inline\n" "--- fabric ---";
  expect_error "t_move_us = 1 t_turn_us\n" "expected a number"

let test_roundtrip () =
  let p = Pmd.paper in
  let p' = parse_exn (Pmd.to_string p) in
  check_string "name" p.Pmd.name p'.Pmd.name;
  check_float "t_turn" p.Pmd.timing.Router.Timing.t_turn p'.Pmd.timing.Router.Timing.t_turn;
  check_bool "same fabric" true (Fabric.Layout.equal p.Pmd.layout p'.Pmd.layout)

let test_map_with_custom_pmd () =
  (* a machine with slow turns: mapping still works, and the engine charges
     the PMD's turn cost *)
  let pmd = parse_exn grid_src in
  let program = Circuits.Qecc.c513 () in
  let ctx =
    match Mapper.create ~fabric:pmd.Pmd.layout ~config:(Config.with_m 2 (Pmd.config pmd)) program with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  (* ideal baseline under the PMD's gate delays: 5 + 5*50 = 255 *)
  check_float "pmd baseline" 255.0 (Mapper.ideal_latency ctx);
  match Mapper.map Mvfb ctx with
  | Ok sol -> check_bool "mapped above baseline" true (sol.Mapper.latency >= 255.0)
  | Error e -> Alcotest.fail (Mapper.error_to_string e)

let () =
  Alcotest.run "pmd"
    [
      ( "pmd",
        [
          Alcotest.test_case "grid" `Quick test_parse_grid;
          Alcotest.test_case "linear" `Quick test_parse_linear;
          Alcotest.test_case "inline" `Quick test_parse_inline;
          Alcotest.test_case "defaults" `Quick test_defaults_are_paper;
          Alcotest.test_case "diagnostics" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "map with custom machine" `Quick test_map_with_custom_pmd;
        ] );
    ]
