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

(* Capacity oracle.  Random walks of 2-6 ions on the small tile, each a
   chain of unit steps (with a turn wherever the axis changes at a
   junction) at random start times, so that ions crowd the same segments
   and junctions.  For every resource the worst occupancy is counted by
   brute force — at each touch start [t], the number of distinct ions with
   a touch [lo, hi) containing [t] — and compared with the certifier's
   [capacity] findings: the same resources in id order, the same levels
   and first times. *)
let tile_comp =
  match Component.extract (Layout.small_tile ()) with Ok c -> c | Error e -> failwith e

let tile_traps = Component.traps tile_comp
let in_trap c = Component.trap_at tile_comp c <> None

(* a cell's resource, numbered as the certifier does: segments, then
   junctions *)
let tile_resource c =
  match (Component.segment_at tile_comp c, Component.junction_at tile_comp c) with
  | Some s, _ -> Some s
  | None, Some j -> Some (Array.length (Component.segments tile_comp) + j)
  | None, None -> None

(* the cells an ion at [c] may step to: a trap is left only to its tap
   and entered only from it *)
let steps_from c =
  match Component.trap_at tile_comp c with
  | Some t -> [ tile_traps.(t).Component.tap ]
  | None ->
      List.filter
        (fun n ->
          match Component.trap_at tile_comp n with
          | Some t -> Coord.equal tile_traps.(t).Component.tap c
          | None -> not (Cell.equal (Layout.get (Component.layout tile_comp) n) Cell.Empty))
        (List.map (Coord.step c) Coord.all_dirs)

(* ion [q]'s walk out of trap [q mod 4], starting at [t0] half-microseconds:
   each step waits [wait] half-microseconds, then takes the [pick]-th legal
   step *)
let walk q t0 steps =
  let tm = Timing.paper in
  let here = ref tile_traps.(q mod Array.length tile_traps).Component.tpos in
  let clock = ref (0.5 *. float_of_int t0) and axis = ref None and out = ref [] in
  let emit cmd duration =
    out := cmd :: !out;
    clock := !clock +. duration
  in
  List.iter
    (fun (wait, pick) ->
      let options = steps_from !here in
      let next = List.nth options (pick mod List.length options) in
      let ax = if next.Coord.y = !here.Coord.y then `H else `V in
      clock := !clock +. (0.5 *. float_of_int wait);
      (match (!axis, Component.junction_at tile_comp !here) with
      | Some a, Some _ when a <> ax ->
          let finish = !clock +. tm.Timing.t_turn in
          emit (Micro.Turn { qubit = q; at = !here; start = !clock; finish }) tm.Timing.t_turn
      | _ -> ());
      let finish = !clock +. tm.Timing.t_move in
      emit
        (Micro.Move { qubit = q; from_ = !here; to_ = next; start = !clock; finish })
        tm.Timing.t_move;
      axis := if in_trap next || in_trap !here then None else Some ax;
      here := next)
    steps;
  List.rev !out

let gen_walks =
  QCheck.Gen.(
    let* nq = 2 -- 6 in
    let* caps = pair (1 -- 2) (1 -- 2) in
    let step = pair (int_bound 3) (int_bound 3) in
    let* walks = list_repeat nq (pair (int_bound 20) (list_size (1 -- 12) step)) in
    return (nq, caps, List.concat (List.mapi (fun q (t0, steps) -> walk q t0 steps) walks)))

(* (resource, worst level, first time at it) over capacity, by resource *)
let oracle_capacity ~caps:(chan, junc) cmds =
  let nsegs = Array.length (Component.segments tile_comp) in
  let touches = Array.make (nsegs + Array.length (Component.junctions tile_comp)) [] in
  let touch q c lo hi =
    Option.iter (fun r -> touches.(r) <- (q, lo, hi) :: touches.(r)) (tile_resource c)
  in
  List.iter
    (function
      | Micro.Move { qubit; from_; to_; start; finish } ->
          touch qubit from_ start finish;
          touch qubit to_ start finish
      | Micro.Turn { qubit; at; start; finish } -> touch qubit at start finish
      | Micro.Gate_start _ | Micro.Gate_end _ -> ())
    cmds;
  List.concat
    (List.mapi
       (fun r ts ->
         let level t =
           let inside (q, lo, hi) = if lo <= t && t < hi then Some q else None in
           List.length (List.sort_uniq compare (List.filter_map inside ts))
         in
         let worst, at =
           List.fold_left
             (fun (w, at) (_, t, _) ->
               let l = level t in
               if l > w || (l = w && t < at) then (l, t) else (w, at))
             (0, infinity) ts
         in
         if worst > (if r < nsegs then chan else junc) then [ (r, worst, at) ] else [])
       (Array.to_list touches))

let prop_capacity_oracle =
  QCheck.Test.make ~name:"fuzz: capacity findings = brute-force occupancy count" ~count:300
    (QCheck.make
       ~print:(fun (_, (c, j), cmds) ->
         Printf.sprintf "channel %d junction %d\n%s" c j (Trace.to_string cmds))
       gen_walks)
    (fun (nq, ((chan, junc) as caps), cmds) ->
      let c =
        Analysis.Certify.check ~component:tile_comp ~timing:Timing.paper ~channel_capacity:chan
          ~junction_capacity:junc
          ~dag:(Dag.of_program (Program.build_exn (Program.builder ~name:"walks" ())))
          ~initial_placement:(Array.init nq (fun q -> q mod Array.length tile_traps))
          ~claimed_latency:(Trace.latency cmds) cmds
      in
      let found =
        List.filter_map
          (fun f ->
            let data key = Ion_util.Json.member key f.Analysis.Finding.json in
            match
              (Analysis.Finding.kind f, f.Analysis.Finding.loc, data "level", data "time_us")
            with
            | ( Some "capacity",
                Analysis.Finding.Cell cell,
                Some (Ion_util.Json.Int l),
                Some (Ion_util.Json.Float t) ) ->
                Some (Option.value ~default:(-1) (tile_resource cell), l, t)
            | _ -> None)
          c.Analysis.Certify.findings
      in
      let expected = oracle_capacity ~caps cmds in
      let show l =
        String.concat "; "
          (List.map
             (fun (r, level, at) -> Printf.sprintf "resource %d level %d at %g" r level at)
             l)
      in
      found = expected
      || QCheck.Test.fail_reportf "certifier: [%s]\noracle:    [%s]" (show found) (show expected))

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

(* routing accounting must fully drain: the Eq. 1 breakdown's routing time
   matches the trace's move/turn counts *)
let prop_routing_time_matches_trace =
  QCheck.Test.make ~name:"fuzz: routing-time stat equals trace movement time" ~count:100 arb_case
    (fun case ->
      let p, _, _ = case in
      let _, _, result = run_case case in
      match result with
      | Error _ -> false
      | Ok r ->
          let tm = Timing.paper in
          let from_trace =
            (float_of_int (Trace.move_count r.Engine.trace) *. tm.Timing.t_move)
            +. (float_of_int (Trace.turn_count r.Engine.trace) *. tm.Timing.t_turn)
          in
          let breakdown = Breakdown.of_result ~timing:tm ~dag:(Dag.of_program p) r in
          Float.abs (from_trace -. breakdown.Breakdown.routing_us) < 1e-6)

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
             prop_capacity_oracle;
           ] );
     ])
