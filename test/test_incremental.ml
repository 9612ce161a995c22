(* Equivalence and performance-counter tests for the incremental routing
   stack (dirty-net PathFinder, lower-bound A*, cross-candidate route
   cache): Table-1 circuits must map to bit-identical latencies and traces
   with the cache on or off, both solutions must certify, a warm engine
   cache must strictly reduce single-net searches without changing the
   trace, and the parallel-determinism detector must stay silent with the
   cache enabled. *)

open Qspr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fabric () = Fabric.Layout.quale_45x85 ()

let config incremental =
  Config.default |> Config.with_m 3 |> Config.with_seed 99
  |> Config.with_incremental incremental

let ctx_of ~incremental program =
  match Mapper.create ~fabric:(fabric ()) ~config:(config incremental) program with
  | Ok c -> c
  | Error e -> Alcotest.failf "Mapper.create: %s" e

let solve ~incremental program =
  match Mapper.map Mvfb (ctx_of ~incremental program) with
  | Ok s -> s
  | Error e -> Alcotest.failf "map Mvfb: %s" (Mapper.error_to_string e)

let float_bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ----------------------------------------- Table 1: on/off bit identity *)

let table1 () = [ ("[[5,1,3]]", Circuits.Qecc.c513 ()); ("[[7,1,3]]", Circuits.Qecc.c713 ()) ]

let test_table1_on_off_identical () =
  List.iter
    (fun (name, program) ->
      let on = solve ~incremental:true program in
      let off = solve ~incremental:false program in
      check_bool
        (Printf.sprintf "%s: latency bits identical" name)
        true
        (float_bits_eq on.Mapper.latency off.Mapper.latency);
      check_bool
        (Printf.sprintf "%s: traces identical" name)
        true
        (on.Mapper.trace = off.Mapper.trace);
      check_bool
        (Printf.sprintf "%s: initial placements identical" name)
        true
        (on.Mapper.initial_placement = off.Mapper.initial_placement);
      check_bool
        (Printf.sprintf "%s: final placements identical" name)
        true
        (on.Mapper.final_placement = off.Mapper.final_placement))
    (table1 ())

(* ------------------------------------- both modes certify, same digest *)

let certify ctx sol =
  let cfg = Mapper.config ctx in
  let policy = cfg.Config.qspr_policy in
  Analysis.Certify.check ~component:(Mapper.component ctx) ~timing:cfg.Config.timing
    ~channel_capacity:policy.Simulator.Engine.channel_capacity
    ~junction_capacity:policy.Simulator.Engine.junction_capacity ~dag:(Mapper.dag ctx)
    ~initial_placement:sol.Mapper.initial_placement
    ~final_placement:sol.Mapper.final_placement
    ~claimed_latency:sol.Mapper.latency sol.Mapper.trace

let test_both_modes_certify () =
  let program = Circuits.Qecc.c513 () in
  let run incremental =
    let ctx = ctx_of ~incremental program in
    let sol =
      match Mapper.map Mvfb ctx with
      | Ok s -> s
      | Error e -> Alcotest.failf "map Mvfb: %s" (Mapper.error_to_string e)
    in
    certify ctx sol
  in
  let on = run true and off = run false in
  if not on.Analysis.Certify.valid then
    Alcotest.failf "incremental trace fails certification:\n%s"
      (String.concat "\n" (List.map (Format.asprintf "%a" Analysis.Finding.pp) on.Analysis.Certify.findings));
  if not off.Analysis.Certify.valid then
    Alcotest.failf "legacy trace fails certification:\n%s"
      (String.concat "\n" (List.map (Format.asprintf "%a" Analysis.Finding.pp) off.Analysis.Certify.findings));
  check_bool "same certified schedule digest" true
    (Int64.equal on.Analysis.Certify.digest off.Analysis.Certify.digest)

(* --------------------------------- engine: warm cache cuts searches only *)

let engine_run ?route_cache ctx placement =
  let cfg = Mapper.config ctx in
  match
    Simulator.Engine.run ~graph:(Mapper.graph ctx) ~timing:cfg.Config.timing
      ~policy:cfg.Config.qspr_policy ~dag:(Mapper.dag ctx)
      ~priorities:(Mapper.qspr_priorities ctx) ~placement ?route_cache ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "engine: %s" (Simulator.Engine.string_of_error e)

let test_engine_cache_bit_identical_and_fewer_searches () =
  let program = Circuits.Qecc.c513 () in
  let ctx = ctx_of ~incremental:true program in
  let center =
    Placer.Center.place (Mapper.component ctx)
      ~num_qubits:(Qasm.Program.num_qubits program)
  in
  let r0 = engine_run ctx center in
  let cache = Router.Route_cache.create () in
  let r1 = engine_run ~route_cache:cache ctx center in
  let r2 = engine_run ~route_cache:cache ctx center in
  check_bool "no-cache vs cold-cache latency bits" true
    (float_bits_eq r0.Simulator.Engine.latency r1.Simulator.Engine.latency);
  check_bool "cold vs warm latency bits" true
    (float_bits_eq r1.Simulator.Engine.latency r2.Simulator.Engine.latency);
  check_bool "no-cache vs cold-cache trace" true
    (r0.Simulator.Engine.trace = r1.Simulator.Engine.trace);
  check_bool "cold vs warm trace" true (r1.Simulator.Engine.trace = r2.Simulator.Engine.trace);
  check_int "cold cache runs every search" r0.Simulator.Engine.route_searches
    r1.Simulator.Engine.route_searches;
  check_int "cold cache has no hits" 0 r1.Simulator.Engine.route_cache_hits;
  check_bool "warm cache strictly fewer searches" true
    (r2.Simulator.Engine.route_searches < r1.Simulator.Engine.route_searches);
  check_bool "warm cache hits" true (r2.Simulator.Engine.route_cache_hits > 0)

(* ------------------------------------ determinism with the cache enabled *)

let test_determinism_with_cache () =
  let program = Circuits.Qecc.c513 () in
  let ctx = ctx_of ~incremental:true program in
  let findings =
    Analysis.Determinism.check ~label:"mvfb incremental" ~jobs:3 (fun ~jobs ->
        Mapper.map Mvfb (Mapper.with_search (Config.with_jobs jobs) ctx))
  in
  if findings <> [] then
    Alcotest.failf "determinism findings with route cache on:\n%s"
      (String.concat "\n" (List.map (Format.asprintf "%a" Analysis.Finding.pp) findings))

let () =
  Alcotest.run "incremental"
    [
      ( "incremental",
        [
          Alcotest.test_case "table-1 on/off bit identity" `Quick test_table1_on_off_identical;
          Alcotest.test_case "both modes certify" `Quick test_both_modes_certify;
          Alcotest.test_case "engine cache: identical, fewer searches" `Quick
            test_engine_cache_bit_identical_and_fewer_searches;
          Alcotest.test_case "determinism with cache" `Quick test_determinism_with_cache;
        ] );
    ]
