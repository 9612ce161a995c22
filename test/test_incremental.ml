(* Equivalence and performance-counter tests for the route cache: the
   Table-1 MVFB winners, found with the cache on, replay bit-identically and
   certify with it off; an engine run through a cache warmed by other
   placements, forward or backward, is bit-identical to an uncached run; a
   warm cache strictly reduces single-net searches without changing the
   trace; and the parallel-determinism detector stays silent with the cache
   armed. *)

open Qspr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fabric () = Fabric.Layout.quale_45x85 ()

let config = Config.default |> Config.with_m 3 |> Config.with_seed 99

let ctx_of program =
  match Mapper.create ~fabric:(fabric ()) ~config program with
  | Ok c -> c
  | Error e -> Alcotest.failf "Mapper.create: %s" e

let float_bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

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

(* ----------------------------------------- Table 1: on/off bit identity *)

(* Cache on: the MVFB search, whose every engine run goes through the
   domain's route cache, warmed by all the candidates before the winner.
   Cache off: the winner's placement replayed through an uncached engine
   run.  The Table-1 winners at this seed are forward runs, so the replay
   is a forward run from the solution's initial placement. *)

let table1 () = [ ("[[5,1,3]]", Circuits.Qecc.c513 ()); ("[[7,1,3]]", Circuits.Qecc.c713 ()) ]

let solve ctx =
  match Mapper.map Mvfb ctx with
  | Ok s -> s
  | Error e -> Alcotest.failf "map Mvfb: %s" (Mapper.error_to_string e)

let replay_uncached name ctx sol =
  match sol.Mapper.direction with
  | Placer.Mvfb.Forward -> engine_run ctx sol.Mapper.initial_placement
  | Placer.Mvfb.Backward -> Alcotest.failf "%s: winner is a backward run, expected forward" name

let test_table1_on_off_identical () =
  List.iter
    (fun (name, program) ->
      let ctx = ctx_of program in
      let on = solve ctx in
      let off = replay_uncached name ctx on in
      check_bool
        (Printf.sprintf "%s: latency bits identical" name)
        true
        (float_bits_eq on.Mapper.latency off.Simulator.Engine.latency);
      check_bool
        (Printf.sprintf "%s: traces identical" name)
        true
        (on.Mapper.trace = off.Simulator.Engine.trace);
      check_bool
        (Printf.sprintf "%s: final placements identical" name)
        true
        (on.Mapper.final_placement = off.Simulator.Engine.final_placement))
    (table1 ())

(* ------------------------------------- both modes certify, same digest *)

let certify ctx ~initial_placement ~final_placement ~latency trace =
  let cfg = Mapper.config ctx in
  let policy = cfg.Config.qspr_policy in
  Analysis.Certify.check ~component:(Mapper.component ctx) ~timing:cfg.Config.timing
    ~channel_capacity:policy.Simulator.Engine.channel_capacity
    ~junction_capacity:policy.Simulator.Engine.junction_capacity ~dag:(Mapper.dag ctx)
    ~initial_placement ~final_placement ~claimed_latency:latency trace

let test_both_modes_certify () =
  let ctx = ctx_of (Circuits.Qecc.c513 ()) in
  let sol = solve ctx in
  let off = replay_uncached "[[5,1,3]]" ctx sol in
  let on =
    certify ctx ~initial_placement:sol.Mapper.initial_placement
      ~final_placement:sol.Mapper.final_placement ~latency:sol.Mapper.latency sol.Mapper.trace
  in
  let off =
    certify ctx ~initial_placement:sol.Mapper.initial_placement
      ~final_placement:off.Simulator.Engine.final_placement ~latency:off.Simulator.Engine.latency
      off.Simulator.Engine.trace
  in
  let fail label (c : Analysis.Certify.certificate) =
    Alcotest.failf "%s trace fails certification:\n%s" label
      (String.concat "\n" (List.map (Format.asprintf "%a" Analysis.Finding.pp) c.Analysis.Certify.findings))
  in
  if not on.Analysis.Certify.valid then fail "cached" on;
  if not off.Analysis.Certify.valid then fail "uncached" off;
  check_bool "same certified schedule digest" true
    (Int64.equal on.Analysis.Certify.digest off.Analysis.Certify.digest)

let test_engine_cache_bit_identical_and_fewer_searches () =
  let program = Circuits.Qecc.c513 () in
  let ctx = ctx_of program in
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
  let ctx = ctx_of program in
  let findings =
    Analysis.Determinism.check ~label:"mvfb incremental" ~jobs:3 (fun ~jobs ->
        Mapper.map Mvfb (Mapper.with_search (Config.with_jobs jobs) ctx))
  in
  if findings <> [] then
    Alcotest.failf "determinism findings with route cache on:\n%s"
      (String.concat "\n" (List.map (Format.asprintf "%a" Analysis.Finding.pp) findings))

(* ---------------- warm cache = uncached, forward and backward (UIDG) *)

(* One engine view per Table-1 circuit and direction: the forward QIDG
   under the mapper's priorities, and the UIDG (the reversed dependency
   graph) that MVFB's backward runs execute.  The cache contract does not
   depend on which priorities order a run, so the UIDG takes its own QSPR
   priorities. *)
type view = { ctx : Mapper.t; dag : Qasm.Dag.t; priorities : float array }

let views =
  lazy
    (Array.of_list
       (List.map
          (fun (_, program) ->
            let ctx = ctx_of program in
            let udag =
              match Qasm.Dag.reverse (Mapper.dag ctx) with
              | Ok u -> u
              | Error e -> Alcotest.failf "Dag.reverse: %s" e
            in
            let delay = Router.Timing.gate_delay config.Config.timing in
            ( { ctx; dag = Mapper.dag ctx; priorities = Mapper.qspr_priorities ctx },
              {
                ctx;
                dag = udag;
                priorities = Scheduler.Priority.compute Scheduler.Priority.qspr_default ~delay udag;
              } ))
          (Circuits.Qecc.all ())))

(* qubits on distinct traps drawn from the 3n traps nearest the centre *)
let random_placement ctx ~seed =
  let comp = Mapper.component ctx in
  let nq = Qasm.Program.num_qubits (Mapper.program ctx) in
  let pool =
    Array.of_list
      (Placer.Center.center_traps comp (min (3 * nq) (Array.length (Fabric.Component.traps comp))))
  in
  let rng = Random.State.make seed in
  for i = Array.length pool - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- t
  done;
  Array.sub pool 0 nq

let engine_view ?route_cache v placement =
  match
    Simulator.Engine.run ~graph:(Mapper.graph v.ctx) ~timing:config.Config.timing
      ~policy:config.Config.qspr_policy ~dag:v.dag ~priorities:v.priorities ~placement ?route_cache ()
  with
  | Ok r -> r
  | Error e -> QCheck.Test.fail_reportf "engine: %s" (Simulator.Engine.string_of_error e)

(* property: a cache warmed the way MVFB warms it — forward runs from other
   placements, each followed by a backward run from its final placement —
   serves a new run, in either direction, the same latency bits, trace and
   final placement as an uncached run, and serves every lookup the uncached
   run searched, as a hit or a live search *)
let prop_warm_cache_equals_uncached =
  QCheck.Test.make ~name:"warm cache = uncached, both ways" ~count:40
    QCheck.(quad (int_bound 5) bool (int_range 1 3) int)
    (fun (circuit, backward, warmers, seed) ->
      let fwd, bwd = (Lazy.force views).(circuit) in
      let cache = Router.Route_cache.create () in
      for k = 1 to warmers do
        let r = engine_view ~route_cache:cache fwd (random_placement fwd.ctx ~seed:[| seed; k |]) in
        ignore (engine_view ~route_cache:cache bwd r.Simulator.Engine.final_placement)
      done;
      let v = if backward then bwd else fwd in
      let placement = random_placement v.ctx ~seed:[| seed; 0 |] in
      let uncached = engine_view v placement in
      let warm = engine_view ~route_cache:cache v placement in
      float_bits_eq uncached.Simulator.Engine.latency warm.Simulator.Engine.latency
      && uncached.Simulator.Engine.trace = warm.Simulator.Engine.trace
      && uncached.Simulator.Engine.final_placement = warm.Simulator.Engine.final_placement
      && warm.Simulator.Engine.route_searches + warm.Simulator.Engine.route_cache_hits
         = uncached.Simulator.Engine.route_searches)

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
          QCheck_alcotest.to_alcotest prop_warm_cache_equals_uncached;
        ] );
    ]
