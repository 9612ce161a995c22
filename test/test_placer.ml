(* Tests for the three placers: center (QUALE), Monte-Carlo and MVFB —
   determinism, search-budget accounting, and the paper's central claim that
   MVFB beats Monte-Carlo at an equal number of placement runs. *)

open Fabric
open Placer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let quale_comp () =
  match Component.extract (Layout.quale_45x85 ()) with
  | Ok c -> c
  | Error e -> Alcotest.failf "extract: %s" e

let fig3 () =
  let src =
    "QUBIT q0,0\nQUBIT q1,0\nQUBIT q2,0\nQUBIT q3\nQUBIT q4,0\n" ^ "H q0\nH q1\nH q2\nH q4\n"
    ^ "C-X q3,q2\nC-Z q4,q2\nC-Y q2,q1\nC-Y q3,q1\nC-X q4,q1\nC-Z q2,q0\nC-Y q3,q0\nC-Z q4,q0\n"
  in
  match Qasm.Parser.parse ~name:"fig3" src with Ok p -> p | Error e -> Alcotest.failf "parse: %s" e

(* forward and backward scoring shared by the search tests *)
let make_forward ?(program = fig3 ()) comp =
  let graph = Graph.build comp in
  let p = program in
  let dag = Qasm.Dag.of_program p in
  let tm = Router.Timing.paper in
  let prios =
    Scheduler.Priority.compute Scheduler.Priority.qspr_default ~delay:(Router.Timing.gate_delay tm) dag
  in
  fun placement ->
    Simulator.Engine.score ~graph ~timing:tm ~policy:Simulator.Engine.qspr_policy ~dag ~priorities:prios
      ~placement ()

let make_backward comp =
  let graph = Graph.build comp in
  let p = fig3 () in
  let dag = Qasm.Dag.of_program p in
  let udag = match Qasm.Dag.reverse dag with Ok u -> u | Error e -> Alcotest.fail e in
  let tm = Router.Timing.paper in
  let prios =
    Scheduler.Priority.compute Scheduler.Priority.qspr_default ~delay:(Router.Timing.gate_delay tm) udag
  in
  fun placement ->
    Simulator.Engine.score ~graph ~timing:tm ~policy:Simulator.Engine.qspr_policy ~dag:udag
      ~priorities:prios ~placement ()

(* --------------------------------------------------------------- Center *)

let test_center_traps_sorted () =
  let comp = quale_comp () in
  let lay = Component.layout comp in
  let center = Layout.center lay in
  let traps = Component.traps comp in
  let ids = Center.center_traps comp 10 in
  check_int "ten traps" 10 (List.length ids);
  let dists = List.map (fun t -> Ion_util.Coord.manhattan center traps.(t).Component.tpos) ids in
  check_bool "sorted by distance" true (dists = List.sort compare dists)

let test_center_place_deterministic () =
  let comp = quale_comp () in
  let a = Center.place comp ~num_qubits:5 and b = Center.place comp ~num_qubits:5 in
  Alcotest.(check (array int)) "same placement" a b

let test_center_too_many_qubits () =
  let comp = quale_comp () in
  match Center.place comp ~num_qubits:10_000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "impossible placement accepted"

let test_center_permuted_is_permutation () =
  let comp = quale_comp () in
  let rng = Ion_util.Rng.create 1 in
  let base = Center.place comp ~num_qubits:5 in
  let perm = Center.place_permuted rng comp ~num_qubits:5 in
  Alcotest.(check (list int))
    "same trap set" (List.sort compare (Array.to_list base))
    (List.sort compare (Array.to_list perm))

(* ---------------------------------------------------------- Monte_carlo *)

let test_mc_runs_budget () =
  let comp = quale_comp () in
  match Monte_carlo.search ~seed:7 ~runs:6 ~evaluate:(make_forward comp) comp ~num_qubits:5 with
  | Error e -> Alcotest.fail (Simulator.Engine.string_of_error e)
  | Ok o ->
      check_int "runs" 6 o.Search.runs;
      check_int "latencies recorded" 6 (List.length o.Search.latencies);
      (* winner is the minimum of the recorded latencies *)
      let best = List.fold_left Float.min Float.infinity o.Search.latencies in
      check_bool "winner is minimum" true
        (Float.abs (best -. o.Search.result.Simulator.Engine.latency) < 1e-9)

let test_mc_zero_runs_rejected () =
  let comp = quale_comp () in
  match Monte_carlo.search ~seed:7 ~runs:0 ~evaluate:(make_forward comp) comp ~num_qubits:5 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero runs accepted"

let test_mc_deterministic_given_seed () =
  let comp = quale_comp () in
  let run () =
    match Monte_carlo.search ~seed:42 ~runs:4 ~evaluate:(make_forward comp) comp ~num_qubits:5 with
    | Ok o -> o.Search.result.Simulator.Engine.latency
    | Error e -> Alcotest.fail (Simulator.Engine.string_of_error e)
  in
  Alcotest.(check (float 1e-9)) "reproducible" (run ()) (run ())

(* The Monte-Carlo search loop as it stood before MVFB and Monte-Carlo
   shared one multi-start pool, kept as the reference the pool must
   reproduce: draw [runs] permuted center placements, route each distinct
   one (optionally only the [k] best-estimated, and only the first
   [max_evals] in run order, in chunks of 8 with an [out_of_time] poll
   between chunks), then reduce in run order — first error wins, strict
   [<] keeps the earliest run.  Returns (placement, result, latencies,
   runs, evaluations, truncated). *)
let legacy_mc ?prescreen ?max_evals ?(out_of_time = fun () -> false) ~seed ~runs
    ~(evaluate : Placer.Search.evaluator) comp ~num_qubits =
  let placements =
    Array.init runs (fun i -> Center.place_permuted (Ion_util.Rng.derive seed ~index:i) comp ~num_qubits)
  in
  let first = Hashtbl.create 16 in
  let canon =
    Array.mapi
      (fun i p ->
        match Hashtbl.find_opt first p with
        | Some j -> j
        | None ->
            Hashtbl.add first p i;
            i)
      placements
  in
  let uniques = List.filter (fun i -> canon.(i) = i) (List.init runs Fun.id) in
  let routed =
    match prescreen with
    | Some (k, estimate) when k < List.length uniques ->
        let scored = List.map (fun i -> (estimate placements.(i), i)) uniques in
        List.filteri (fun r _ -> r < k) (List.sort compare scored) |> List.map snd |> List.sort compare
    | _ -> uniques
  in
  let capped = match max_evals with Some cap -> cap < List.length routed | None -> false in
  let routed =
    match max_evals with Some cap -> List.filteri (fun r _ -> r < max 1 cap) routed | None -> routed
  in
  let results = Hashtbl.create 16 in
  let timed_out = ref false in
  List.iteri
    (fun r i ->
      if not !timed_out then begin
        Hashtbl.add results i (evaluate placements.(i));
        if (r + 1) mod 8 = 0 && r + 1 < List.length routed && out_of_time () then timed_out := true
      end)
    routed;
  let best = ref None and latencies = ref [] and error = ref None in
  for i = 0 to runs - 1 do
    if !error = None then
      match Hashtbl.find_opt results canon.(i) with
      | None -> ()
      | Some (Error e) -> error := Some e
      | Some (Ok r) ->
          let l = r.Simulator.Engine.latency in
          latencies := l :: !latencies;
          (match !best with
          | Some (_, (b : Simulator.Engine.score)) when not (l < b.Simulator.Engine.latency) -> ()
          | _ -> best := Some (placements.(i), r))
  done;
  match (!error, !best) with
  | Some e, _ -> Error e
  | None, None -> Error (Simulator.Engine.Invalid "no successful run")
  | None, Some (placement, result) ->
      Ok (placement, result, List.rev !latencies, runs, Hashtbl.length results, capped || !timed_out)

(* A small chain program on [nq] qubits: few enough permutations that
   Monte-Carlo draws repeat and the dedup path is exercised. *)
let chain nq =
  let decls = List.init nq (Printf.sprintf "QUBIT q%d,0\n") in
  let gates = List.init (nq - 1) (fun i -> Printf.sprintf "C-X q%d,q%d\n" i (i + 1)) in
  match Qasm.Parser.parse ~name:"chain" (String.concat "" (decls @ ("H q0\n" :: gates))) with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse: %s" e

(* Monte-Carlo through the placer equals the reference loop above: same
   winning placement and result, latencies, runs, evaluations and
   truncation, over random seeds, run counts, pre-screening widths,
   evaluation caps and a poll that stops after the first chunk. *)
let prop_mc_matches_legacy_loop =
  let comp = quale_comp () in
  let forwards = Array.init 4 (fun i -> make_forward ~program:(chain (i + 2)) comp) in
  QCheck.Test.make ~count:200 ~name:"monte-carlo = the reference multi-start loop"
    QCheck.(
      pair (pair small_nat (int_range 1 12))
        (triple (option (int_range 1 12)) (option (int_range 0 12)) (pair (int_range 2 5) bool)))
    (fun ((seed, runs), (k, max_evals, (nq, stop))) ->
      let evaluate = forwards.(nq - 2) in
      (* a cheap pure score with many ties, standing in for the estimator *)
      let estimate p = float_of_int (Hashtbl.hash p mod 5) in
      let prescreen = Option.map (fun k -> (k, estimate)) k in
      let poll () = if stop then fun () -> true else fun () -> false in
      let expected =
        legacy_mc ?prescreen ?max_evals ~out_of_time:(poll ()) ~seed ~runs ~evaluate comp
          ~num_qubits:nq
      in
      let got =
        match
          Monte_carlo.search ?prescreen ?max_evals ~out_of_time:(poll ()) ~seed ~runs ~evaluate comp
            ~num_qubits:nq
        with
        | Ok { placement; result; latencies; runs; evaluations; truncated; _ } ->
            Ok (placement, result, latencies, runs, evaluations, truncated)
        | Error e -> Error e
      in
      let view = function
        | Ok (p, (r : Simulator.Engine.score), ls, runs, evals, trunc) ->
            Ok
              ( p,
                Int64.bits_of_float r.Simulator.Engine.latency,
                r.Simulator.Engine.final_placement,
                List.map Int64.bits_of_float ls,
                runs,
                evals,
                trunc )
        | Error e -> Error (Simulator.Engine.string_of_error e)
      in
      view expected = view got)

(* ----------------------------------------------------------------- Mvfb *)

let test_mvfb_basic () =
  let comp = quale_comp () in
  match
    Mvfb.search ~seed:3 ~m:2 ~forward:(make_forward comp) ~backward:(make_backward comp) comp
      ~num_qubits:5
  with
  | Error e -> Alcotest.fail (Simulator.Engine.string_of_error e)
  | Ok o ->
      check_bool "at least patience+1 runs per seed" true (o.Search.runs >= 2 * 4);
      check_int "latencies recorded" o.Search.runs (List.length o.Search.latencies);
      let best = List.fold_left Float.min Float.infinity o.Search.latencies in
      check_bool "winner is minimum" true
        (Float.abs (best -. o.Search.result.Simulator.Engine.latency) < 1e-9)

let test_mvfb_m_guard () =
  let comp = quale_comp () in
  match
    Mvfb.search ~seed:3 ~m:0 ~forward:(make_forward comp) ~backward:(make_backward comp) comp
      ~num_qubits:5
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "m=0 accepted"

let test_mvfb_max_runs_cap () =
  let comp = quale_comp () in
  match
    Mvfb.search ~seed:3 ~m:1 ~max_runs_per_seed:4 ~forward:(make_forward comp)
      ~backward:(make_backward comp) comp ~num_qubits:5
  with
  | Error e -> Alcotest.fail (Simulator.Engine.string_of_error e)
  | Ok o -> check_bool "capped" true (o.Search.runs <= 4)

(* The paper's Table 1 claim: at the same number of placement runs, MVFB
   finds a latency at least as good as Monte-Carlo (deterministic here given
   fixed seeds; checked for two seeds). *)
let test_mvfb_beats_mc_at_equal_budget () =
  let comp = quale_comp () in
  List.iter
    (fun seed ->
      let mvfb =
        match
          Mvfb.search ~seed ~m:3 ~forward:(make_forward comp) ~backward:(make_backward comp) comp
            ~num_qubits:5
        with
        | Ok o -> o
        | Error e -> Alcotest.fail (Simulator.Engine.string_of_error e)
      in
      let mc =
        match
          Monte_carlo.search ~seed ~runs:mvfb.Search.runs ~evaluate:(make_forward comp) comp
            ~num_qubits:5
        with
        | Ok o -> o
        | Error e -> Alcotest.fail (Simulator.Engine.string_of_error e)
      in
      check_bool
        (Printf.sprintf "seed %d: MVFB (%g) <= MC (%g)" seed
           mvfb.Search.result.Simulator.Engine.latency mc.Search.result.Simulator.Engine.latency)
        true
        (mvfb.Search.result.Simulator.Engine.latency
        <= mc.Search.result.Simulator.Engine.latency +. 1e-9))
    [ 11; 23 ]

let test_mvfb_backward_winner_consistency () =
  (* whatever direction wins, the winning latency is in the recorded list
     and the initial placement is a valid trap assignment *)
  let comp = quale_comp () in
  match
    Mvfb.search ~seed:5 ~m:2 ~forward:(make_forward comp) ~backward:(make_backward comp) comp
      ~num_qubits:5
  with
  | Error e -> Alcotest.fail (Simulator.Engine.string_of_error e)
  | Ok o ->
      let ntraps = Array.length (Component.traps comp) in
      Array.iter
        (fun t -> check_bool "trap in range" true (t >= 0 && t < ntraps))
        o.Search.placement;
      check_int "placement arity" 5 (Array.length o.Search.placement)

(* ----------------------------------------------------------- Exhaustive *)

let test_exhaustive_space () =
  check_int "C(4,2)*2!" 12 (Exhaustive.search_space ~candidate_traps:4 ~num_qubits:2);
  check_int "C(6,5)*5!" 720 (Exhaustive.search_space ~candidate_traps:6 ~num_qubits:5)

let test_exhaustive_finds_optimum_over_candidates () =
  let comp = quale_comp () in
  let forward = make_forward comp in
  match Exhaustive.search ~candidate_traps:6 ~evaluate:forward comp ~num_qubits:5 with
  | Error e -> Alcotest.fail (Simulator.Engine.string_of_error e)
  | Ok o ->
      check_int "all evaluated" 720 o.Exhaustive.evaluated;
      check_bool "spread observed" true
        (o.Exhaustive.worst_latency > o.Exhaustive.result.Simulator.Engine.latency);
      (* the deterministic center placement is one of the candidates, so the
         optimum is at least as good *)
      let center_lat =
        match forward (Center.place comp ~num_qubits:5) with
        | Ok r -> r.Simulator.Engine.latency
        | Error e -> Alcotest.fail (Simulator.Engine.string_of_error e)
      in
      check_bool "beats or matches center" true
        (o.Exhaustive.result.Simulator.Engine.latency <= center_lat +. 1e-9)

let test_exhaustive_bounds_mvfb () =
  (* MVFB restricted to the same candidate set can do no better than the
     exhaustive optimum over that set... MVFB wanders off the candidate set
     via backward runs, so only check the sane direction: the exhaustive
     result is a real, achievable latency *)
  let comp = quale_comp () in
  let forward = make_forward comp in
  match Exhaustive.search ~candidate_traps:6 ~evaluate:forward comp ~num_qubits:5 with
  | Error e -> Alcotest.fail (Simulator.Engine.string_of_error e)
  | Ok o ->
      let dag = Qasm.Dag.of_program (fig3 ()) in
      let baseline = Qasm.Dag.critical_path ~delay:(Router.Timing.gate_delay Router.Timing.paper) dag in
      check_bool "optimum above the ideal baseline" true
        (o.Exhaustive.result.Simulator.Engine.latency >= baseline -. 1e-9)

let test_exhaustive_guards () =
  let comp = quale_comp () in
  let forward = make_forward comp in
  (match Exhaustive.search ~candidate_traps:3 ~evaluate:forward comp ~num_qubits:5 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "too few candidates accepted");
  match Exhaustive.search ~candidate_traps:12 ~evaluate:forward comp ~num_qubits:5 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized space accepted"

(* ------------------------------------------------------------ Annealing *)

let test_annealing_improves_or_matches_start () =
  let comp = quale_comp () in
  let rng = Ion_util.Rng.create 21 in
  match
    Annealing.search ~rng ~evaluations:20 ~evaluate:(make_forward comp) comp ~num_qubits:5
  with
  | Error e -> Alcotest.fail (Simulator.Engine.string_of_error e)
  | Ok o ->
      check_int "evaluations" 20 o.Search.evaluations;
      check_int "latencies recorded" 20 (List.length o.Search.latencies);
      let first = List.hd o.Search.latencies in
      check_bool "best <= first" true (o.Search.result.Simulator.Engine.latency <= first +. 1e-9);
      (* best really is the minimum of the recorded costs *)
      let best = List.fold_left Float.min Float.infinity o.Search.latencies in
      check_bool "best is min" true
        (Float.abs (best -. o.Search.result.Simulator.Engine.latency) < 1e-9)

let test_annealing_guards () =
  let comp = quale_comp () in
  let rng = Ion_util.Rng.create 1 in
  (match Annealing.search ~rng ~evaluations:0 ~evaluate:(make_forward comp) comp ~num_qubits:5 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero evaluations accepted");
  let estimate _ = 0.0 in
  match
    Annealing.search ~rng ~prescreen:(0, estimate) ~evaluate:(make_forward comp) comp ~num_qubits:5
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero prescreen candidates accepted"

let test_annealing_deterministic () =
  let comp = quale_comp () in
  let run () =
    let rng = Ion_util.Rng.create 33 in
    match Annealing.search ~rng ~evaluations:12 ~evaluate:(make_forward comp) comp ~num_qubits:5 with
    | Ok o -> o.Search.result.Simulator.Engine.latency
    | Error e -> Alcotest.fail (Simulator.Engine.string_of_error e)
  in
  Alcotest.(check (float 1e-9)) "reproducible" (run ()) (run ())

(* --------------------------------------------------------- Connectivity *)

let test_connectivity_weights () =
  let p = fig3 () in
  let ws = Placer.Connectivity.interaction_weights p in
  (* 8 distinct pairs, each once *)
  check_int "pairs" 8 (List.length ws);
  List.iter (fun (_, _, w) -> check_int "weight" 1 w) ws

let test_connectivity_places_partners_close () =
  let comp = quale_comp () in
  let p = fig3 () in
  let placement = Placer.Connectivity.place comp p in
  check_int "arity" 5 (Array.length placement);
  (* all distinct *)
  check_int "distinct traps" 5 (List.length (List.sort_uniq compare (Array.to_list placement)));
  (* placement is routable and mapping works *)
  match make_forward comp placement with
  | Ok r -> check_bool "maps" true (r.Simulator.Engine.latency > 0.0)
  | Error e -> Alcotest.fail (Simulator.Engine.string_of_error e)

let test_connectivity_guard () =
  let comp = match Component.extract (Layout.small_tile ()) with Ok c -> c | Error e -> Alcotest.fail e in
  (* small tile has 4 traps; a 5-qubit program cannot fit *)
  match Placer.Connectivity.place comp (fig3 ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overfull placement accepted"

(* ------------------------------------------------------------- proposal *)

(* Distribution shape of the annealer's O(1) proposal tracker: every draw
   is a valid move — swaps name two distinct in-range qubits, relocations
   target a free pool trap — and with both qubits to swap and free traps to
   move to, both move kinds actually occur (Stay never does). *)
let prop_proposal_draws_valid =
  QCheck.Test.make ~count:50 ~name:"proposal draws are valid and mixed"
    QCheck.(pair (int_range 2 8) small_nat)
    (fun (nq, seed) ->
      let comp = quale_comp () in
      let num_traps = Array.length (Component.traps comp) in
      let pool = Array.of_list (Center.center_traps comp (3 * nq)) in
      let placement = Array.init nq (fun i -> pool.(i)) in
      let tracker = Annealing.Proposal.create ~num_traps pool placement in
      let rng = Ion_util.Rng.create (9000 + seed) in
      let swaps = ref 0 and relocs = ref 0 in
      for _ = 1 to 400 do
        match Annealing.Proposal.draw tracker rng ~num_qubits:nq with
        | Annealing.Proposal.Stay -> QCheck.Test.fail_report "Stay drawn with free traps available"
        | Annealing.Proposal.Swap (i, j) ->
            incr swaps;
            if not (i >= 0 && i < nq && j >= 0 && j < nq && i <> j) then
              QCheck.Test.fail_report "swap names an invalid qubit pair"
        | Annealing.Proposal.Relocate (q, dst) ->
            incr relocs;
            if q < 0 || q >= nq then QCheck.Test.fail_report "relocate names an invalid qubit";
            if not (Annealing.Proposal.is_free tracker dst) then
              QCheck.Test.fail_report "relocate targets an occupied or out-of-pool trap"
      done;
      !swaps > 0 && !relocs > 0)

let test_proposal_relocate_bookkeeping () =
  let comp = quale_comp () in
  let num_traps = Array.length (Component.traps comp) in
  let pool = Array.of_list (Center.center_traps comp 8) in
  let placement = [| pool.(0); pool.(1); pool.(2) |] in
  let tracker = Annealing.Proposal.create ~num_traps pool placement in
  check_int "free traps" 5 (Annealing.Proposal.num_free tracker);
  check_bool "occupied trap not free" false (Annealing.Proposal.is_free tracker pool.(0));
  check_bool "unoccupied pool trap free" true (Annealing.Proposal.is_free tracker pool.(3));
  Annealing.Proposal.relocate tracker ~src:pool.(0) ~dst:pool.(3);
  check_int "free count preserved" 5 (Annealing.Proposal.num_free tracker);
  check_bool "dst now occupied" false (Annealing.Proposal.is_free tracker pool.(3));
  check_bool "src now free" true (Annealing.Proposal.is_free tracker pool.(0))

let test_proposal_rejects_bad_setup () =
  let comp = quale_comp () in
  let num_traps = Array.length (Component.traps comp) in
  let pool = Array.of_list (Center.center_traps comp 6) in
  (match Annealing.Proposal.create ~num_traps pool [| pool.(0); pool.(0) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate placement accepted");
  match Annealing.Proposal.create ~num_traps pool [| num_traps |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range trap accepted"

let () =
  Alcotest.run "placer"
    [
      ( "center",
        [
          Alcotest.test_case "sorted by distance" `Quick test_center_traps_sorted;
          Alcotest.test_case "deterministic" `Quick test_center_place_deterministic;
          Alcotest.test_case "too many qubits" `Quick test_center_too_many_qubits;
          Alcotest.test_case "permutation" `Quick test_center_permuted_is_permutation;
        ] );
      ( "monte_carlo",
        [
          Alcotest.test_case "run budget" `Quick test_mc_runs_budget;
          Alcotest.test_case "zero runs rejected" `Quick test_mc_zero_runs_rejected;
          Alcotest.test_case "deterministic" `Quick test_mc_deterministic_given_seed;
          QCheck_alcotest.to_alcotest prop_mc_matches_legacy_loop;
        ] );
      ( "mvfb",
        [
          Alcotest.test_case "basic search" `Quick test_mvfb_basic;
          Alcotest.test_case "m guard" `Quick test_mvfb_m_guard;
          Alcotest.test_case "max runs cap" `Quick test_mvfb_max_runs_cap;
          Alcotest.test_case "beats MC at equal budget" `Slow test_mvfb_beats_mc_at_equal_budget;
          Alcotest.test_case "winner consistency" `Quick test_mvfb_backward_winner_consistency;
        ] );
      ( "annealing",
        [
          Alcotest.test_case "improves or matches" `Quick test_annealing_improves_or_matches_start;
          Alcotest.test_case "guards" `Quick test_annealing_guards;
          Alcotest.test_case "deterministic" `Quick test_annealing_deterministic;
        ] );
      ( "proposal",
        [
          Alcotest.test_case "relocate bookkeeping" `Quick test_proposal_relocate_bookkeeping;
          Alcotest.test_case "bad setup rejected" `Quick test_proposal_rejects_bad_setup;
          QCheck_alcotest.to_alcotest prop_proposal_draws_valid;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "weights" `Quick test_connectivity_weights;
          Alcotest.test_case "places and maps" `Quick test_connectivity_places_partners_close;
          Alcotest.test_case "guard" `Quick test_connectivity_guard;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "search space" `Quick test_exhaustive_space;
          Alcotest.test_case "finds candidate optimum" `Slow test_exhaustive_finds_optimum_over_candidates;
          Alcotest.test_case "above baseline" `Slow test_exhaustive_bounds_mvfb;
          Alcotest.test_case "guards" `Quick test_exhaustive_guards;
        ] );
    ]
