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
        [ Alcotest.test_case "tables are sane" `Quick test_distance_tables ] );
      ( "determinism",
        [
          Alcotest.test_case "estimate is deterministic" `Quick test_estimate_deterministic;
          Alcotest.test_case "Domain_pool fan-out is bit-identical" `Quick
            test_estimate_domain_pool_bit_identical;
          Alcotest.test_case "bad placements rejected" `Quick test_estimate_rejects_bad_placements;
          Alcotest.test_case "estimate pins on the Table-1 circuits" `Quick test_estimate_pins;
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
