(* Engine fuzzing: random circuits, random placements and both policy
   presets, checked against the independent trace certifier and the
   engine's own invariants; rule-breaking mutations of the same traces must
   be rejected by the certifier.  This is the deepest correctness net in the
   suite — any scheduling, routing, capacity or bookkeeping bug the unit
   tests miss tends to surface here. *)

module Coord = Ion_util.Coord
open Qasm
open Fabric
open Router
open Simulator

(* random unitary circuit over [nq] qubits *)
let gen_program =
  QCheck.Gen.(
    let* nq = 2 -- 8 in
    let* ngates = 1 -- 60 in
    let* choices = list_repeat ngates (triple (int_bound 6) (int_bound 997) (int_bound 991)) in
    let b = Program.builder ~name:"fuzz" () in
    let qs = Array.init nq (fun i -> Program.add_qubit b ~init:0 (Printf.sprintf "q%d" i)) in
    List.iter
      (fun (kind, a, c) ->
        let qa = qs.(a mod nq) and qc = qs.(c mod nq) in
        match kind with
        | 0 -> Program.add_gate1 b Gate.H qa
        | 1 -> Program.add_gate1 b Gate.S qa
        | 2 -> Program.add_gate1 b Gate.T qa
        | 3 | 4 -> if qa <> qc then Program.add_gate2 b Gate.CX qa qc
        | 5 -> if qa <> qc then Program.add_gate2 b Gate.CY qa qc
        | _ -> if qa <> qc then Program.add_gate2 b Gate.CZ qa qc)
      choices;
    return (Program.build_exn b))

(* a small but non-trivial fabric: 3x3 junctions, traps on every span *)
let fuzz_layout =
  Layout.make_grid ~width:23 ~height:17 ~pitch_x:7 ~pitch_y:5 ~margin:2 ~traps_per_channel:1 ()

let fuzz_comp =
  match Component.extract fuzz_layout with Ok c -> c | Error e -> failwith e

let fuzz_graph = Graph.build fuzz_comp

let gen_case =
  QCheck.Gen.(
    let* p = gen_program in
    let* seed = int_bound 1_000_000 in
    let* quale = bool in
    return (p, seed, quale))

let arb_case =
  QCheck.make
    ~print:(fun (p, seed, quale) ->
      Printf.sprintf "seed=%d quale=%b\n%s" seed quale (Printer.to_string p))
    gen_case

let run_case (p, seed, quale) =
  let nq = Program.num_qubits p in
  let rng = Ion_util.Rng.create seed in
  let traps = Array.length (Component.traps fuzz_comp) in
  (* random injective placement *)
  let perm = Ion_util.Rng.permutation rng traps in
  let placement = Array.init nq (fun q -> perm.(q)) in
  let policy = if quale then Engine.quale_policy else Engine.qspr_policy in
  let tm = Timing.paper in
  let dag = Dag.of_program p in
  let prios = Scheduler.Priority.compute Scheduler.Priority.qspr_default ~delay:(Timing.gate_delay tm) dag in
  (placement, policy, Engine.run ~graph:fuzz_graph ~timing:tm ~policy ~dag ~priorities:prios ~placement ())

(* The independent certifier replays an engine trace against the fabric,
   the timing model and the program's DAG. *)
let certify p placement policy (r : Engine.result) trace =
  Analysis.Certify.check ~component:fuzz_comp ~timing:Timing.paper
    ~channel_capacity:policy.Engine.channel_capacity
    ~junction_capacity:policy.Engine.junction_capacity ~dag:(Dag.of_program p)
    ~initial_placement:placement ~final_placement:r.Engine.final_placement
    ~claimed_latency:r.Engine.latency trace

let findings_report (c : Analysis.Certify.certificate) =
  String.concat "\n" (List.map (Format.asprintf "%a" Analysis.Finding.pp) c.Analysis.Certify.findings)

let prop_traces_validate =
  QCheck.Test.make ~name:"fuzz: every engine trace passes physical validation" ~count:150 arb_case
    (fun case ->
      let (p, _, _) = case in
      let placement, policy, result = run_case case in
      match result with
      | Error e -> QCheck.Test.fail_reportf "engine failed: %s" (Engine.string_of_error e)
      | Ok r ->
          let c = certify p placement policy r r.Engine.trace in
          if c.Analysis.Certify.valid then true
          else QCheck.Test.fail_reportf "invalid trace:\n%s" (findings_report c))

(* Trace mutations that always break a physical rule, each with the
   certifier finding kind that must report it. *)
type mutation = Off_unit_step | Late_gate_end | Dropped_gate_end | Short_move

let mutations = [| Off_unit_step; Late_gate_end; Dropped_gate_end; Short_move |]

let expected_kind = function
  | Off_unit_step -> "bad-step"
  | Late_gate_end | Short_move -> "bad-duration"
  | Dropped_gate_end -> "gate-pairing"

(* Applies [m] to the [k]-th command it can apply to (modulo their number);
   [None] when the trace has no such command. *)
let mutate m k trace =
  let applies = function
    | Micro.Move _ -> m = Off_unit_step || m = Short_move
    | Micro.Gate_end _ -> m = Late_gate_end || m = Dropped_gate_end
    | Micro.Turn _ | Micro.Gate_start _ -> false
  in
  match List.length (List.filter applies trace) with
  | 0 -> None
  | n ->
      let target = k mod n and seen = ref (-1) in
      Some
        (List.filter_map
           (fun cmd ->
             if not (applies cmd) then Some cmd
             else begin
               incr seen;
               if !seen <> target then Some cmd
               else
                 match (m, cmd) with
                 | Off_unit_step, Micro.Move mv ->
                     (* double the step: same direction, two cells *)
                     let { Coord.x = x0; y = y0 } = mv.from_ and { Coord.x = x1; y = y1 } = mv.to_ in
                     Some (Micro.Move { mv with to_ = Coord.make ((2 * x1) - x0) ((2 * y1) - y0) })
                 | Short_move, Micro.Move mv -> Some (Micro.Move { mv with finish = mv.finish -. 0.5 })
                 | Late_gate_end, Micro.Gate_end g -> Some (Micro.Gate_end { g with time = g.time +. 1.0 })
                 | Dropped_gate_end, Micro.Gate_end _ -> None
                 | _ -> Some cmd
             end)
           trace)

let prop_mutations_rejected =
  QCheck.Test.make ~name:"fuzz: every rule-breaking trace mutation is rejected" ~count:120
    QCheck.(pair arb_case (pair (int_bound (Array.length mutations - 1)) (int_bound 10_000)))
    (fun (case, (mi, k)) ->
      let (p, _, _) = case in
      let placement, policy, result = run_case case in
      match result with
      | Error e -> QCheck.Test.fail_reportf "engine failed: %s" (Engine.string_of_error e)
      | Ok r -> (
          let m = mutations.(mi) in
          match mutate m k r.Engine.trace with
          | None -> true
          | Some forged ->
              let c = certify p placement policy r forged in
              let kind = expected_kind m in
              if
                (not c.Analysis.Certify.valid)
                && List.exists (fun f -> Analysis.Finding.kind f = Some kind) c.Analysis.Certify.findings
              then true
              else QCheck.Test.fail_reportf "mutation not reported as %s:\n%s" kind (findings_report c)))

let prop_latency_at_least_baseline =
  QCheck.Test.make ~name:"fuzz: mapped latency >= ideal baseline" ~count:150 arb_case (fun case ->
      let (p, _, _) = case in
      let _, _, result = run_case case in
      match result with
      | Error _ -> false
      | Ok r ->
          let dag = Dag.of_program p in
          let baseline = Dag.critical_path ~delay:(Timing.gate_delay Timing.paper) dag in
          r.Engine.latency >= baseline -. 1e-9)

let prop_stats_consistent =
  QCheck.Test.make ~name:"fuzz: per-instruction stats are ordered and complete" ~count:100 arb_case
    (fun case ->
      let _, _, result = run_case case in
      match result with
      | Error _ -> false
      | Ok r ->
          Array.for_all
            (fun (s : Engine.instr_stats) ->
              s.Engine.ready_at <= s.Engine.issued_at +. 1e-9
              && s.Engine.issued_at <= s.Engine.completed_at +. 1e-9)
            r.Engine.stats)

let prop_final_placement_within_capacity =
  QCheck.Test.make ~name:"fuzz: final placement puts at most 2 ions per trap" ~count:100 arb_case
    (fun case ->
      let _, _, result = run_case case in
      match result with
      | Error _ -> false
      | Ok r ->
          let traps = Array.length (Component.traps fuzz_comp) in
          let load = Array.make traps 0 in
          Array.iter
            (fun t ->
              if t < 0 || t >= traps then failwith "trap out of range";
              load.(t) <- load.(t) + 1)
            r.Engine.final_placement;
          Array.for_all (fun l -> l <= 2) load)

let prop_deterministic =
  QCheck.Test.make ~name:"fuzz: engine runs are deterministic" ~count:50 arb_case (fun case ->
      match (run_case case, run_case case) with
      | (_, _, Ok a), (_, _, Ok b) ->
          Float.equal a.Engine.latency b.Engine.latency
          && List.length a.Engine.trace = List.length b.Engine.trace
      | (_, _, Error e1), (_, _, Error e2) -> e1 = e2
      | _ -> false)

(* gate-count conservation: the trace contains exactly one gate start per
   gate instruction *)
let prop_gate_conservation =
  QCheck.Test.make ~name:"fuzz: one trace gate per program gate" ~count:100 arb_case (fun case ->
      let (p, _, _) = case in
      let _, _, result = run_case case in
      match result with
      | Error _ -> false
      | Ok r -> Trace.gate_count r.Engine.trace = Program.gate_count p)

(* congestion accounting must fully drain: total wait is finite and the
   total routing time matches the trace's move/turn counts *)
let prop_routing_time_matches_trace =
  QCheck.Test.make ~name:"fuzz: routing-time stat equals trace movement time" ~count:100 arb_case
    (fun case ->
      let _, _, result = run_case case in
      match result with
      | Error _ -> false
      | Ok r ->
          let tm = Timing.paper in
          let from_trace =
            (float_of_int (Trace.move_count r.Engine.trace) *. tm.Timing.t_move)
            +. (float_of_int (Trace.turn_count r.Engine.trace) *. tm.Timing.t_turn)
          in
          Float.abs (from_trace -. r.Engine.total_routing_time) < 1e-6)

let prop_trace_reverse_involution =
  QCheck.Test.make ~name:"fuzz: trace reversal preserves counts and latency" ~count:60 arb_case
    (fun case ->
      let _, _, result = run_case case in
      match result with
      | Error _ -> false
      | Ok r ->
          let t = r.Engine.trace in
          let rev = Trace.reverse t in
          let rev2 = Trace.reverse rev in
          Float.abs (Trace.latency t -. Trace.latency rev) < 1e-9
          && Trace.move_count t = Trace.move_count rev
          && Trace.turn_count t = Trace.turn_count rev
          && Trace.gate_count t = Trace.gate_count rev2
          && List.length t = List.length rev2)

let () =
  Alcotest.run "engine_fuzz"
    (let qsuite = List.map QCheck_alcotest.to_alcotest in
     [
       ( "fuzz",
         qsuite
           [
             prop_traces_validate;
             prop_latency_at_least_baseline;
             prop_stats_consistent;
             prop_final_placement_within_capacity;
             prop_deterministic;
             prop_gate_conservation;
             prop_routing_time_matches_trace;
             prop_trace_reverse_involution;
             prop_mutations_rejected;
           ] );
     ])
