(* Tests of the domain pool and of the parallel determinism contract: any
   job count must produce bit-identical placement searches, mapper solutions
   and experiment rows — the guarantee that lets QSPR_JOBS be a pure
   performance knob. *)

open Qspr
module Domain_pool = Ion_util.Domain_pool
module Rng = Ion_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-12))

(* [strategy] on [ctx] at [m] seeds or runs, on [jobs] domains *)
let map_at ~m ~jobs strategy ctx =
  Mapper.map strategy (Mapper.with_search Config.(fun c -> c |> with_m m |> with_jobs jobs) ctx)

(* ---------------------------------------------------------- Domain_pool *)

let test_pool_map_orders_results () =
  Domain_pool.with_pool ~jobs:4 (fun pool ->
      let out = Domain_pool.map pool (fun x -> x * x) (Array.init 100 Fun.id) in
      Alcotest.(check (array int)) "squares in order" (Array.init 100 (fun i -> i * i)) out)

let test_pool_sequential_is_inline () =
  check_int "one job" 1 (Domain_pool.jobs Domain_pool.sequential);
  let d = Domain.self () in
  let out =
    Domain_pool.map Domain_pool.sequential (fun () -> Domain.self () = d) (Array.make 3 ())
  in
  Alcotest.(check (array bool)) "runs on the calling domain" (Array.make 3 true) out

let test_pool_empty_and_singleton () =
  Domain_pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Domain_pool.map pool (fun x -> x) [||]);
      Alcotest.(check (array int)) "singleton" [| 7 |] (Domain_pool.map pool (fun x -> x + 1) [| 6 |]))

let test_pool_propagates_exception () =
  Domain_pool.with_pool ~jobs:3 (fun pool ->
      match Domain_pool.map pool (fun i -> if i = 5 then failwith "boom" else i) (Array.init 9 Fun.id) with
      | exception Failure m -> check_bool "message" true (m = "boom")
      | _ -> Alcotest.fail "exception swallowed")

let test_pool_guards () =
  match Domain_pool.create ~jobs:0 with
  | exception Invalid_argument _ -> ()
  | p ->
      Domain_pool.shutdown p;
      Alcotest.fail "jobs=0 accepted"

let test_pool_reusable_across_maps () =
  Domain_pool.with_pool ~jobs:2 (fun pool ->
      for round = 1 to 5 do
        let out = Domain_pool.map pool (fun x -> x + round) (Array.init 20 Fun.id) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init 20 (fun i -> i + round))
          out
      done)

(* ----------------------------------------------------------- Rng.derive *)

let test_derive_pure_and_indexed () =
  let draw seed index =
    let rng = Rng.derive seed ~index in
    List.init 4 (fun _ -> Rng.int rng 1_000_000)
  in
  Alcotest.(check (list int)) "pure function of (seed, index)" (draw 42 3) (draw 42 3);
  check_bool "indices decorrelated" true (draw 42 0 <> draw 42 1);
  check_bool "seeds decorrelated" true (draw 42 0 <> draw 43 0)

(* --------------------------------------------- mapper-level determinism *)

let small_program () =
  match List.assoc_opt "[[5,1,3]]" (Circuits.Qecc.all ()) with
  | Some p -> p
  | None -> Alcotest.fail "missing [[5,1,3]]"

let context () =
  match Mapper.create ~fabric:(Fabric.Layout.quale_45x85 ()) (small_program ()) with
  | Ok ctx -> ctx
  | Error e -> Alcotest.failf "Mapper.create: %s" e

let solve label = function
  | Ok (s : Mapper.solution) -> s
  | Error e -> Alcotest.failf "%s: %s" label (Mapper.error_to_string e)

let same_solution name (a : Mapper.solution) (b : Mapper.solution) =
  check_float (name ^ ": latency") a.Mapper.latency b.Mapper.latency;
  Alcotest.(check (array int)) (name ^ ": initial placement") a.Mapper.initial_placement b.Mapper.initial_placement;
  Alcotest.(check (array int)) (name ^ ": final placement") a.Mapper.final_placement b.Mapper.final_placement;
  check_int "placement runs" a.Mapper.placement_runs b.Mapper.placement_runs;
  Alcotest.(check (list (float 1e-12))) (name ^ ": run latencies") a.Mapper.run_latencies b.Mapper.run_latencies;
  check_bool (name ^ ": trace") true (a.Mapper.trace = b.Mapper.trace)

let test_monte_carlo_jobs_bit_identical () =
  let ctx = context () in
  let serial = solve "MC serial" (map_at ~m:8 ~jobs:1 Monte_carlo ctx) in
  let parallel = solve "MC parallel" (map_at ~m:8 ~jobs:4 Monte_carlo ctx) in
  same_solution "monte carlo" serial parallel

let test_mvfb_jobs_bit_identical () =
  let ctx = context () in
  let serial = solve "MVFB serial" (map_at ~m:3 ~jobs:1 Mvfb ctx) in
  let parallel = solve "MVFB parallel" (map_at ~m:3 ~jobs:3 Mvfb ctx) in
  same_solution "mvfb" serial parallel

let test_table1_jobs_bit_identical () =
  let circuits =
    List.filter (fun (n, _) -> n = "[[5,1,3]]") (Circuits.Qecc.all ())
  in
  let serial = Experiments.table1 ~m_small:2 ~m_large:3 ~jobs:1 ~circuits () in
  let parallel = Experiments.table1 ~m_small:2 ~m_large:3 ~jobs:2 ~circuits () in
  check_int "row count" (List.length serial) (List.length parallel);
  List.iter2
    (fun (a : Report.table1_row) (b : Report.table1_row) ->
      check_bool "circuit" true (a.Report.circuit = b.Report.circuit);
      let same_cell name (x : Report.placer_cell) (y : Report.placer_cell) =
        check_float (name ^ " latency") x.Report.latency y.Report.latency;
        check_int (name ^ " runs") x.Report.runs y.Report.runs
      in
      same_cell "mvfb_25" a.Report.mvfb_25 b.Report.mvfb_25;
      same_cell "mc_25" a.Report.mc_25 b.Report.mc_25;
      same_cell "mvfb_100" a.Report.mvfb_100 b.Report.mvfb_100;
      same_cell "mc_100" a.Report.mc_100 b.Report.mc_100)
    serial parallel

(* PR 10: the arena-backed engine must stay byte-identical across job
   widths on every Table-1 circuit — not just the winning latency but the
   full trace and its certificate digest (the canonical rendering of
   every move/turn/gate event the flat arenas now back). *)
let test_table1_traces_and_digests_jobs4 () =
  List.iter
    (fun (name, program) ->
      let ctx () =
        match Mapper.create ~fabric:(Fabric.Layout.quale_45x85 ()) program with
        | Ok ctx -> ctx
        | Error e -> Alcotest.failf "Mapper.create %s: %s" name e
      in
      let c1 = ctx () and c4 = ctx () in
      let a = solve (name ^ " jobs=1") (map_at ~m:2 ~jobs:1 Mvfb c1) in
      let b = solve (name ^ " jobs=4") (map_at ~m:2 ~jobs:4 Mvfb c4) in
      check_bool (name ^ ": latency bits") true
        (Int64.equal (Int64.bits_of_float a.Mapper.latency) (Int64.bits_of_float b.Mapper.latency));
      check_bool (name ^ ": trace") true (a.Mapper.trace = b.Mapper.trace);
      let da = (Analysis.Certify.of_solution c1 a).Analysis.Certify.digest
      and db = (Analysis.Certify.of_solution c4 b).Analysis.Certify.digest in
      check_bool (name ^ ": certificate digest") true (Int64.equal da db))
    (Circuits.Qecc.all ())

let () =
  Alcotest.run "parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_orders_results;
          Alcotest.test_case "sequential inline" `Quick test_pool_sequential_is_inline;
          Alcotest.test_case "empty and singleton" `Quick test_pool_empty_and_singleton;
          Alcotest.test_case "exception propagation" `Quick test_pool_propagates_exception;
          Alcotest.test_case "guards" `Quick test_pool_guards;
          Alcotest.test_case "reusable" `Quick test_pool_reusable_across_maps;
        ] );
      ("rng", [ Alcotest.test_case "derive" `Quick test_derive_pure_and_indexed ]);
      ( "determinism",
        [
          Alcotest.test_case "monte carlo jobs=1 vs 4" `Quick test_monte_carlo_jobs_bit_identical;
          Alcotest.test_case "mvfb jobs=1 vs 3" `Quick test_mvfb_jobs_bit_identical;
          Alcotest.test_case "table1 jobs=1 vs 2" `Slow test_table1_jobs_bit_identical;
          Alcotest.test_case "table1 traces+digests jobs=1 vs 4" `Slow
            test_table1_traces_and_digests_jobs4;
        ] );
    ]
