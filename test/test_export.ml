(* Tests for the JSON emitter and the result-export layer. *)

open Ion_util

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length sub in
  let found = ref false in
  for i = 0 to String.length s - n do
    if String.sub s i n = sub then found := true
  done;
  !found

(* ----------------------------------------------------------------- Json *)

let test_json_scalars () =
  check_string "null" "null" (Json.to_string Json.Null);
  check_string "true" "true" (Json.to_string (Json.Bool true));
  check_string "int" "42" (Json.to_string (Json.Int 42));
  check_string "float" "1.5" (Json.to_string (Json.Float 1.5));
  check_string "integral float" "2.0" (Json.to_string (Json.Float 2.0));
  check_string "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  check_string "inf is null" "null" (Json.to_string (Json.Float Float.infinity))

let test_json_escaping () =
  check_string "quotes" {|"a\"b"|} (Json.escape_string {|a"b|});
  check_string "backslash" {|"a\\b"|} (Json.escape_string {|a\b|});
  check_string "newline" {|"a\nb"|} (Json.escape_string "a\nb");
  check_string "control" "\"\\u0001\"" (Json.escape_string "\001")

let test_json_compact_nesting () =
  let doc = Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]); ("s", Json.String "hi") ] in
  check_string "compact" {|{"xs":[1,2],"s":"hi"}|} (Json.to_string ~indent:false doc)

let test_json_empty_containers () =
  check_string "empty list" "[]" (Json.to_string (Json.List []));
  check_string "empty obj" "{}" (Json.to_string (Json.Obj []))

(* structural well-formedness: brackets and quotes balance after escaping *)
let well_formed s =
  let depth = ref 0 and in_str = ref false and escaped = ref false and ok = ref true in
  String.iter
    (fun c ->
      if !in_str then begin
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_str

let prop_json_well_formed =
  QCheck.Test.make ~name:"arbitrary documents serialize well-formed" ~count:200
    QCheck.(
      let rec gen_json depth =
        Gen.(
          if depth = 0 then
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Int i) small_int;
                map (fun f -> Json.Float f) (float_bound_exclusive 1000.0);
                map (fun s -> Json.String s) (string_size (0 -- 12));
              ]
          else
            oneof
              [
                map (fun l -> Json.List l) (list_size (0 -- 4) (gen_json (depth - 1)));
                map
                  (fun ps -> Json.Obj ps)
                  (list_size (0 -- 4) (pair (string_size (0 -- 6)) (gen_json (depth - 1))));
              ])
      in
      make (gen_json 3))
    (fun doc -> well_formed (Json.to_string doc) && well_formed (Json.to_string ~indent:false doc))

(* --------------------------------------------------------------- Export *)

let mapped_solution () =
  let program = Circuits.Qecc.c513 () in
  let fabric = Fabric.Layout.quale_45x85 () in
  let ctx =
    match Qspr.Mapper.create ~fabric ~config:Qspr.Config.(default |> with_m 2) program with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  match Qspr.Mapper.map Mvfb ctx with
  | Ok s -> (program, s)
  | Error e -> Alcotest.fail (Qspr.Mapper.error_to_string e)

let test_export_solution_fields () =
  let program, sol = mapped_solution () in
  let s = Qspr.Export.solution_string ~program sol in
  check_bool "well-formed" true (well_formed s);
  List.iter
    (fun key -> check_bool ("has " ^ key) true (contains s ("\"" ^ key ^ "\"")))
    [
      "circuit";
      "latency_us";
      "direction";
      "initial_placement";
      "final_placement";
      "success_probability";
      "exposure";
      "trace";
    ]

let test_export_without_trace () =
  let program, sol = mapped_solution () in
  let s = Qspr.Export.solution_string ~include_trace:false ~program sol in
  check_bool "no trace key" false (contains s "\"trace\"");
  check_bool "still has latency" true (contains s "\"latency_us\"")

(* Tables 1 and 2 of hand-built rows through the one JSON encoder *)
let test_export_tables () =
  let table = function Qspr.Experiments.Table t -> t | Qspr.Experiments.Text _ -> Alcotest.fail "not a table" in
  let t2 =
    Qspr.Experiments.json
      (table
         (Qspr.Experiments.table2_section
            [ { Qspr.Experiments.circuit = "[[5,1,3]]"; baseline = 510.0; quale = 832.0; qspr = 634.0 } ]))
  in
  let s = Json.to_string t2 in
  check_bool "well-formed" true (well_formed s);
  check_bool "improvement computed" true (contains s "improvement_pct");
  let cell = { Qspr.Experiments.latency = 1.0; cpu_ms = 2.0; runs = 3 } in
  let t1 =
    Qspr.Experiments.json
      (table
         (Qspr.Experiments.table1_section ~m_small:25 ~m_large:100
            [ { Qspr.Experiments.circuit = "x"; mvfb_25 = cell; mc_25 = cell; mvfb_100 = cell; mc_100 = cell } ]))
  in
  check_bool "table1 well-formed" true (well_formed (Json.to_string t1))

let test_export_command_kinds () =
  let c = Ion_util.Coord.make 1 2 in
  let mv = Qspr.Export.command (Router.Micro.Move { qubit = 0; from_ = c; to_ = c; start = 0.0; finish = 1.0 }) in
  check_bool "move op" true (contains (Json.to_string mv) "\"move\"");
  let g = Qspr.Export.command (Router.Micro.Gate_start { instr_id = 1; trap = c; qubits = [ 0; 1 ]; time = 2.0 }) in
  check_bool "gate op" true (contains (Json.to_string g) "\"gate_start\"")

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "export"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "compact nesting" `Quick test_json_compact_nesting;
          Alcotest.test_case "empty containers" `Quick test_json_empty_containers;
        ]
        @ qsuite [ prop_json_well_formed ] );
      ( "export",
        [
          Alcotest.test_case "solution fields" `Quick test_export_solution_fields;
          Alcotest.test_case "without trace" `Quick test_export_without_trace;
          Alcotest.test_case "tables" `Quick test_export_tables;
          Alcotest.test_case "command kinds" `Quick test_export_command_kinds;
        ] );
    ]
