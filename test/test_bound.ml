(* Optimality-gap auditor tests: admissibility of every certified bound
   against every placer over the whole Table-1 suite, bit-identical bound
   values across job counts, forged-certificate rejection, capacity
   infeasibility (direct and through the fault campaign), and the exact
   branch-and-bound on small instances — tight, dominating the static
   catalog, and bit-identical at any jobs width. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fabric45 = lazy (Fabric.Layout.quale_45x85 ())

let context ?fabric ?config p =
  let fabric = match fabric with Some f -> f | None -> Lazy.force fabric45 in
  match Qspr.Mapper.create ~fabric ?config p with
  | Ok ctx -> ctx
  | Error e -> Alcotest.fail ("Mapper.create: " ^ e)

let solve label = function
  | Ok (s : Qspr.Mapper.solution) -> s
  | Error e -> Alcotest.fail (label ^ ": " ^ Qspr.Mapper.error_to_string e)

(* [strategy] on [ctx] at [m] seeds or runs, on [jobs] domains *)
let map_at ~m ?(jobs = 1) strategy ctx =
  Qspr.Mapper.map strategy
    (Qspr.Mapper.with_search Qspr.Config.(fun c -> c |> with_m m |> with_jobs jobs) ctx)

(* Every placer's solution on every Table-1 circuit carries a bound that
   (a) never exceeds the achieved latency (admissibility), (b) dominates
   the ideal baseline (the critical path is in the catalog), and (c) is
   exactly the recomputation from (context, placement). *)
let test_bounds_admissible_all_placers () =
  List.iter
    (fun (name, p) ->
      let ctx = context p in
      let placers =
        [
          ("mvfb", fun () -> map_at ~m:2 Mvfb ctx);
          ("mc", fun () -> map_at ~m:2 Monte_carlo ctx);
          ("sa", fun () -> map_at ~m:2 Annealing ctx);
          ("center", fun () -> Qspr.Mapper.map Center ctx);
        ]
      in
      List.iter
        (fun (placer, run) ->
          let label = name ^ "/" ^ placer in
          let s = solve label (run ()) in
          check_bool (label ^ ": bound admissible") true
            (s.Qspr.Mapper.lower_bound_us <= s.Qspr.Mapper.latency +. 1e-6);
          check_bool (label ^ ": bound positive") true (s.Qspr.Mapper.lower_bound_us > 0.0);
          check_bool
            (label ^ ": bound dominates the ideal baseline")
            true
            (s.Qspr.Mapper.lower_bound_us >= Qspr.Mapper.ideal_latency ctx -. 1e-6);
          let b =
            Qspr.Mapper.certified_bound ctx
              ~initial_placement:s.Qspr.Mapper.initial_placement
          in
          check_bool (label ^ ": bound is the recomputation") true
            (Int64.bits_of_float b.Estimator.Bound.lower_bound_us
            = Int64.bits_of_float s.Qspr.Mapper.lower_bound_us
            && b.Estimator.Bound.kind = s.Qspr.Mapper.bound_kind))
        placers)
    (Circuits.Qecc.all ())

(* The bound is part of the solution, so it must be bit-identical at any
   jobs fan-out, like every other solution field. *)
let test_bounds_jobs_identical () =
  List.iter
    (fun (name, p) ->
      let ctx = context p in
      let j1 = solve (name ^ " jobs=1") (map_at ~m:4 ~jobs:1 Mvfb ctx) in
      let j4 = solve (name ^ " jobs=4") (map_at ~m:4 ~jobs:4 Mvfb ctx) in
      check_bool (name ^ ": bound bit-identical across jobs") true
        (Int64.bits_of_float j1.Qspr.Mapper.lower_bound_us
        = Int64.bits_of_float j4.Qspr.Mapper.lower_bound_us);
      check_bool (name ^ ": bound kind identical across jobs") true
        (j1.Qspr.Mapper.bound_kind = j4.Qspr.Mapper.bound_kind))
    [ ("[[5,1,3]]", Circuits.Qecc.c513 ()); ("[[9,1,3]]", Circuits.Qecc.c913 ()) ]

(* A certificate claiming a lower bound above its own latency is forged:
   the certifier must reject it with a bound-violation error. *)
let test_forged_certificate_rejected () =
  let p = Circuits.Qecc.c513 () in
  let ctx = context p in
  let s = solve "center" (Qspr.Mapper.map Center ctx) in
  let cfg = Qspr.Mapper.config ctx in
  let policy = cfg.Qspr.Config.qspr_policy in
  let run lower_bound =
    Analysis.Certify.check
      ~component:(Qspr.Mapper.component ctx)
      ~timing:cfg.Qspr.Config.timing
      ~channel_capacity:policy.Simulator.Engine.channel_capacity
      ~junction_capacity:policy.Simulator.Engine.junction_capacity
      ~dag:(Qspr.Mapper.dag ctx)
      ~initial_placement:s.Qspr.Mapper.initial_placement
      ~final_placement:s.Qspr.Mapper.final_placement ~lower_bound
      ~claimed_latency:s.Qspr.Mapper.latency s.Qspr.Mapper.trace
  in
  let honest = run (s.Qspr.Mapper.lower_bound_us, s.Qspr.Mapper.bound_kind) in
  check_bool "honest certificate valid" true honest.Analysis.Certify.valid;
  check_bool "honest gap non-negative" true
    (match Analysis.Certify.optimality_gap honest with Some g -> g >= 0.0 | None -> false);
  let forged = run (s.Qspr.Mapper.latency +. 100.0, Estimator.Bound.Critical_path) in
  check_bool "forged certificate invalid" false forged.Analysis.Certify.valid;
  check_bool "forged certificate names the bound violation" true
    (List.exists
       (fun f -> Analysis.Finding.kind f = Some "bound-violation")
       forged.Analysis.Certify.findings)

(* The auditor itself: clean on an honest solution, and a bound-mismatch
   error on a solution whose claimed bound is not the recomputation. *)
let test_audit_honest_and_forged () =
  let p = Circuits.Qecc.c513 () in
  let ctx = context p in
  let s = solve "mvfb" (map_at ~m:2 Mvfb ctx) in
  let clean = Analysis.Bound.audit ctx s in
  check_int "honest audit has no errors" 0
    (Analysis.Finding.count Analysis.Finding.Error clean.Analysis.Bound.findings);
  check_bool "honest audit reports the gap" true
    (List.exists
       (fun f -> Analysis.Finding.kind f = Some "optimality-gap")
       clean.Analysis.Bound.findings);
  check_bool "gap matches the report" true
    (clean.Analysis.Bound.optimality_gap >= 0.0);
  let forged = { s with Qspr.Mapper.lower_bound_us = s.Qspr.Mapper.lower_bound_us +. 1.0 } in
  let caught = Analysis.Bound.audit ctx forged in
  check_bool "forged solution bound caught" true
    (List.exists
       (fun f -> Analysis.Finding.kind f = Some "bound-mismatch")
       caught.Analysis.Bound.findings)

(* Capacity infeasibility: the hard bound (2 * traps < qubits), the
   pipeline load rule (traps < qubits), and feasible counts. *)
let test_infeasibility_thresholds () =
  let dag = Qasm.Dag.of_program (Circuits.Qecc.c513 ()) in
  (match Estimator.Bound.infeasibility ~num_traps:2 dag with
  | Some i ->
      check_bool "2 traps for 5 qubits is hard-infeasible" true i.Estimator.Bound.inf_hard
  | None -> Alcotest.fail "2 traps for 5 qubits must be infeasible");
  (match Estimator.Bound.infeasibility ~num_traps:4 dag with
  | Some i ->
      check_bool "4 traps for 5 qubits is a soft (load-rule) infeasibility" false
        i.Estimator.Bound.inf_hard
  | None -> Alcotest.fail "4 traps for 5 qubits must be infeasible");
  check_bool "5 traps for 5 qubits is feasible" true
    (Estimator.Bound.infeasibility ~num_traps:5 dag = None);
  let f = Analysis.Bound.infeasibility_finding
      (Option.get (Estimator.Bound.infeasibility ~num_traps:2 dag)) in
  check_bool "infeasibility finding is an error" true
    (f.Analysis.Finding.severity = Analysis.Finding.Error);
  check_bool "infeasibility finding kind" true (Analysis.Finding.kind f = Some "infeasible")

(* The fault campaign refuses capacity-infeasible degraded fabrics with a
   typed Infeasible outcome instead of burning the retry cascade, counts
   them per level and keeps the histogram total consistent. *)
let test_fault_campaign_infeasible () =
  let p = Circuits.Qecc.c513 () in
  let report =
    match
      Fault.campaign
        ~config:Qspr.Config.(default |> with_m 2)
        ~seed:5 ~levels:[ 0; 1; 2 ] ~trials:6
        ~fabric:(Fabric.Layout.linear ~traps:5 ())
        p
    with
    | Ok r -> r
    | Error e -> Alcotest.fail ("campaign: " ^ e)
  in
  let outcomes pred =
    List.fold_left
      (fun acc l ->
        List.fold_left
          (fun acc t -> if pred t.Fault.outcome then acc + 1 else acc)
          acc l.Fault.trials)
      0 report.Fault.levels
  in
  let infeasible = outcomes (function Fault.Infeasible _ -> true | _ -> false) in
  check_bool "campaign exercises Infeasible trials" true (infeasible > 0);
  check_int "levels count Infeasible trials" infeasible
    (List.fold_left (fun acc l -> acc + l.Fault.infeasible) 0 report.Fault.levels);
  List.iter
    (fun l ->
      List.iter
        (fun t ->
          match t.Fault.outcome with
          | Fault.Infeasible f ->
              check_bool "Infeasible carries an error finding" true
                (f.Analysis.Finding.severity = Analysis.Finding.Error
                && Analysis.Finding.kind f = Some "infeasible")
          | _ -> ())
        l.Fault.trials)
    report.Fault.levels;
  let not_mapped = outcomes (function Fault.Mapped _ -> false | _ -> true) in
  check_int "histogram totals Failed + Unmappable + Infeasible" not_mapped
    (List.fold_left (fun acc (_, v) -> acc + v) 0 report.Fault.histogram)

(* Exact branch-and-bound on two small instances: the search completes
   (proved), its optimum is admissible, dominates the static catalog, and
   is bit-identical regardless of the jobs width used to find the audited
   solution. *)
let test_exact_small_instances () =
  let bell =
    match
      Qasm.Parser.parse ~name:"bell" "QUBIT a,0\nQUBIT b,0\nH a\nC-X a,b\nH a\nH b\n"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let cases =
    [
      ("bell", bell, 4);
      ("[[5,1,3]]", Circuits.Qecc.c513 (), 6);
    ]
  in
  List.iter
    (fun (name, p, traps) ->
      let fabric = Fabric.Layout.linear ~traps () in
      let audit_with jobs =
        let ctx = context ~fabric p in
        let s = solve name (map_at ~m:3 ~jobs Mvfb ctx) in
        (s, Analysis.Bound.audit ~exact:true ctx s)
      in
      let s1, r1 = audit_with 1 in
      let _, r4 = audit_with 4 in
      match (r1.Analysis.Bound.exact, r4.Analysis.Bound.exact) with
      | Some e1, Some e4 ->
          check_bool (name ^ ": exact search proved") true e1.Analysis.Bound.proved;
          check_bool (name ^ ": exact optimum admissible") true
            (e1.Analysis.Bound.optimum_us <= s1.Qspr.Mapper.latency +. 1e-6);
          check_bool (name ^ ": exact dominates the static catalog") true
            (e1.Analysis.Bound.optimum_us
            >= r1.Analysis.Bound.bounds.Estimator.Bound.lower_bound_us -. 1e-6);
          check_bool (name ^ ": exact optimum bit-identical across jobs") true
            (Int64.bits_of_float e1.Analysis.Bound.optimum_us
            = Int64.bits_of_float e4.Analysis.Bound.optimum_us);
          check_int (name ^ ": search nodes identical across jobs") e1.Analysis.Bound.nodes
            e4.Analysis.Bound.nodes;
          check_int (name ^ ": audit has no errors") 0
            (Analysis.Finding.count Analysis.Finding.Error r1.Analysis.Bound.findings)
      | _ -> Alcotest.fail (name ^ ": exact search did not run"))
    cases

(* Guards: instances beyond the search limits are declined with a hint,
   never a bogus bound. *)
let test_exact_guards () =
  let p = Circuits.Qecc.c913 () in
  let ctx = context p in
  let s = solve "mvfb" (map_at ~m:2 Mvfb ctx) in
  let r = Analysis.Bound.audit ~exact:true ctx s in
  check_bool "large instance declines exact search" true
    (r.Analysis.Bound.exact = None && r.Analysis.Bound.exact_skipped <> None);
  check_bool "declined exact is a hint, not an error" true
    (List.exists
       (fun f ->
         Analysis.Finding.kind f = Some "exact-skipped"
         && f.Analysis.Finding.severity = Analysis.Finding.Hint)
       r.Analysis.Bound.findings);
  check_int "declined exact audit still clean" 0
    (Analysis.Finding.count Analysis.Finding.Error r.Analysis.Bound.findings)

(* ------------------------------------------------ placement-bound oracle *)

(* The placement bound as it stood before per-qubit ancestor sums: w i q
   sweeps every ancestor of gate i and tests whether it names q.  The
   per-qubit lists must add the same terms in the same order. *)
let reference_placement_bound ~timing ~dist ~pl dag =
  let module D = Qasm.Dag in
  let delay = Router.Timing.gate_delay timing in
  let nodes = D.nodes dag in
  let n = Array.length nodes in
  let ntraps = Estimator.Distance.num_traps dist in
  let anc =
    if n > 4096 then None
    else begin
      let anc = Array.init n (fun _ -> Ion_util.Bitv.create n) in
      Array.iter
        (fun (nd : D.node) ->
          List.iter
            (fun p ->
              Ion_util.Bitv.or_into ~dst:anc.(nd.D.id) ~src:anc.(p);
              Ion_util.Bitv.set anc.(nd.D.id) p true)
            nd.D.preds)
        nodes;
      Some anc
    end
  in
  let w i q =
    match anc with
    | None -> 0.0
    | Some anc ->
        let acc = ref 0.0 in
        Ion_util.Bitv.iter_set anc.(i) (fun a ->
            let d = delay nodes.(a).D.instr in
            if d > 0.0 && List.mem q (Qasm.Instr.qubits nodes.(a).D.instr) then acc := !acc +. d);
        !acc
  in
  let release = Array.make n 0.0 in
  Array.iter
    (fun (nd : D.node) ->
      match nd.D.instr with
      | Qasm.Instr.Qubit_decl _ -> ()
      | Qasm.Instr.Gate1 (_, q) -> release.(nd.D.id) <- w nd.D.id q
      | Qasm.Instr.Gate2 (_, a, b) ->
          let wa = w nd.D.id a and wb = w nd.D.id b in
          let best = ref infinity in
          for m = 0 to ntraps - 1 do
            let c =
              Float.max
                (wa +. (Estimator.Distance.between dist pl.(a) m *. timing.Router.Timing.t_move))
                (wb +. (Estimator.Distance.between dist pl.(b) m *. timing.Router.Timing.t_move))
            in
            if c < !best then best := c
          done;
          release.(nd.D.id) <- !best)
    nodes;
  let est = Array.make n 0.0 in
  let finish = ref 0.0 in
  Array.iter
    (fun (nd : D.node) ->
      let r =
        List.fold_left
          (fun acc p -> Float.max acc (est.(p) +. delay nodes.(p).D.instr))
          release.(nd.D.id) nd.D.preds
      in
      est.(nd.D.id) <- r;
      finish := Float.max !finish (r +. delay nd.D.instr))
    nodes;
  !finish

let oracle_graph =
  lazy
    (match
       Fabric.Component.extract
         (Fabric.Layout.make_grid ~width:25 ~height:15 ~pitch_x:8 ~pitch_y:7 ~margin:2
            ~traps_per_channel:1 ())
     with
    | Ok c -> Fabric.Graph.build c
    | Error e -> failwith e)

(* A random program over [nq] qubits with [gates] gates; [Program.make]
   rejects a two-qubit gate on one qubit, so operands are always distinct. *)
let random_program rng ~nq ~gates =
  let b = Qasm.Program.builder ~name:"oracle" () in
  let qs = Array.init nq (fun i -> Qasm.Program.add_qubit b (Printf.sprintf "q%d" i)) in
  let g1s = [| Qasm.Gate.H; Qasm.Gate.T; Qasm.Gate.S; Qasm.Gate.Meas_z |] in
  let g2s = [| Qasm.Gate.CX; Qasm.Gate.CY; Qasm.Gate.CZ |] in
  for _ = 1 to gates do
    let a = Random.State.int rng nq in
    if Random.State.bool rng then
      Qasm.Program.add_gate1 b g1s.(Random.State.int rng (Array.length g1s)) qs.(a)
    else begin
      let c = (a + 1 + Random.State.int rng (nq - 1)) mod nq in
      Qasm.Program.add_gate2 b g2s.(Random.State.int rng (Array.length g2s)) qs.(a) qs.(c)
    end
  done;
  Qasm.Program.build_exn b

let bound_matches_reference ~timing ~dist ~pl dag =
  let b =
    Estimator.Bound.compute ~placement:pl ~distance:dist ~timing
      ~num_traps:(Estimator.Distance.num_traps dist) dag
  in
  let ref_placement = reference_placement_bound ~timing ~dist ~pl dag in
  let ref_lower =
    List.fold_left Float.max 0.0
      [ b.Estimator.Bound.critical_path_us; b.serialization_us; b.capacity_us; ref_placement ]
  in
  match b.Estimator.Bound.placement_us with
  | Some p ->
      Int64.equal (Int64.bits_of_float p) (Int64.bits_of_float ref_placement)
      && Int64.equal
           (Int64.bits_of_float b.Estimator.Bound.lower_bound_us)
           (Int64.bits_of_float ref_lower)
  | None -> false

let prop_placement_bound_oracle =
  QCheck.Test.make ~name:"placement bound = ancestor-sweep reference" ~count:150
    QCheck.(triple (int_range 2 14) (int_range 1 220) (int_bound 1_000_000))
    (fun (nq, gates, seed) ->
      let rng = Random.State.make [| seed |] in
      let graph = Lazy.force oracle_graph in
      (* zero-delay one-qubit gates exercise the positive-delay filter *)
      let timing =
        {
          Router.Timing.paper with
          Router.Timing.t_gate1 = [| 10.0; 0.0; 1.3 |].(seed mod 3);
          t_gate2 = [| 100.0; 0.7 |].(seed mod 2);
        }
      in
      let dist =
        Estimator.Distance.build graph ~turn_cost:(Router.Timing.turn_cost_in_moves timing)
      in
      let ntraps = Estimator.Distance.num_traps dist in
      let pl = Array.init nq (fun _ -> Random.State.int rng ntraps) in
      let dag = Qasm.Dag.of_program (random_program rng ~nq ~gates) in
      bound_matches_reference ~timing ~dist ~pl dag
      || QCheck.Test.fail_reportf "bound differs (nq %d, gates %d, seed %d)" nq gates seed)

let test_placement_bound_oracle () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 16 |]) prop_placement_bound_oracle;
  (* past the ancestor-bitset cap the bound falls back to travel only *)
  let rng = Random.State.make [| 4097 |] in
  let timing = Router.Timing.paper in
  let dist =
    Estimator.Distance.build (Lazy.force oracle_graph)
      ~turn_cost:(Router.Timing.turn_cost_in_moves timing)
  in
  let nq = 12 in
  let pl = Array.init nq (fun _ -> Random.State.int rng (Estimator.Distance.num_traps dist)) in
  let dag = Qasm.Dag.of_program (random_program rng ~nq ~gates:4200) in
  check_bool "above the cap" true (Qasm.Dag.num_nodes dag > 4096);
  check_bool "fallback bound bit-identical" true (bound_matches_reference ~timing ~dist ~pl dag)

let () =
  Alcotest.run "bound"
    [
      ( "bounds",
        [
          Alcotest.test_case "admissible for every placer on every Table-1 circuit" `Slow
            test_bounds_admissible_all_placers;
          Alcotest.test_case "bit-identical across job counts" `Quick test_bounds_jobs_identical;
          Alcotest.test_case "placement bound oracle" `Quick test_placement_bound_oracle;
        ] );
      ( "certify",
        [
          Alcotest.test_case "forged lower bound rejected" `Quick test_forged_certificate_rejected;
          Alcotest.test_case "audit catches forged solution bounds" `Quick
            test_audit_honest_and_forged;
        ] );
      ( "infeasibility",
        [
          Alcotest.test_case "capacity thresholds" `Quick test_infeasibility_thresholds;
          Alcotest.test_case "fault campaign refuses infeasible fabrics" `Quick
            test_fault_campaign_infeasible;
        ] );
      ( "exact",
        [
          Alcotest.test_case "small instances proved optimal bounds" `Quick
            test_exact_small_instances;
          Alcotest.test_case "guards decline large instances" `Quick test_exact_guards;
        ] );
    ]
