(* Tests for the event-driven fabric simulator: exact small scenarios with
   hand-computed latencies, physical serialization of commuting gates,
   deadlock reporting, trace reversal, certification of engine traces and
   rejection of forged ones. *)

module Coord = Ion_util.Coord
open Qasm
open Fabric
open Router
open Simulator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let paper_delay tm i = Timing.gate_delay tm i

let fig3_qasm =
  "QUBIT q0,0\nQUBIT q1,0\nQUBIT q2,0\nQUBIT q3\nQUBIT q4,0\n" ^ "H q0\nH q1\nH q2\nH q4\n"
  ^ "C-X q3,q2\nC-Z q4,q2\nC-Y q2,q1\nC-Y q3,q1\nC-X q4,q1\nC-Z q2,q0\nC-Y q3,q0\nC-Z q4,q0\n"

let parse src = match Parser.parse src with Ok p -> p | Error e -> Alcotest.failf "parse: %s" e

let build_graph lay =
  match Component.extract lay with
  | Ok c -> Graph.build c
  | Error e -> Alcotest.failf "extract: %s" e

let tile_graph () = build_graph (Layout.small_tile ())
let quale_graph () = build_graph (Layout.quale_45x85 ())

let run ?(policy = Engine.qspr_policy) graph program placement =
  let tm = Timing.paper in
  let dag = Dag.of_program program in
  let prios = Scheduler.Priority.compute Scheduler.Priority.qspr_default ~delay:(paper_delay tm) dag in
  Engine.run ~graph ~timing:tm ~policy ~dag ~priorities:prios ~placement ()

let run_exn ?policy graph program placement =
  match run ?policy graph program placement with
  | Ok r -> r
  | Error e -> Alcotest.failf "engine: %s" (Engine.string_of_error e)

(* Certifies an engine run against its program, placement and fabric, at
   the given channel capacity (junctions hold two ions under both
   policies). *)
let certify ~channel_capacity graph program placement (r : Engine.result) =
  Analysis.Certify.check ~component:(Graph.component graph) ~timing:Timing.paper
    ~channel_capacity ~junction_capacity:2 ~dag:(Dag.of_program program) ~initial_placement:placement
    ~final_placement:r.Engine.final_placement ~claimed_latency:r.Engine.latency r.Engine.trace

let findings_report (c : Analysis.Certify.certificate) =
  String.concat "\n" (List.map (Format.asprintf "%a" Analysis.Finding.pp) c.Analysis.Certify.findings)

let check_certified what (c : Analysis.Certify.certificate) =
  if not c.Analysis.Certify.valid then Alcotest.failf "%s:\n%s" what (findings_report c)

(* small tile traps: t0=(5,1) t1=(5,3) t2=(5,6) t3=(5,8) *)

let test_single_1q_gate () =
  let p = parse "QUBIT a\nH a\n" in
  let r = run_exn (tile_graph ()) p [| 0 |] in
  check_float "latency = t_1q" 10.0 r.Engine.latency;
  check_int "no moves" 0 (Trace.move_count r.Engine.trace);
  check_int "one gate" 1 (Trace.gate_count r.Engine.trace)

let test_single_2q_adjacent_traps () =
  (* q0 in t0 (5,1), q1 in t1 (5,3): midpoint (5,2), nearest trap is t0;
     q1 hops trap->tap->trap (2 moves), gate runs 100us *)
  let p = parse "QUBIT a\nQUBIT b\nC-X a,b\n" in
  let r = run_exn (tile_graph ()) p [| 0; 1 |] in
  check_float "latency = 2 moves + gate" 102.0 r.Engine.latency;
  check_int "two moves" 2 (Trace.move_count r.Engine.trace);
  check_int "no turns" 0 (Trace.turn_count r.Engine.trace);
  (* both end in the same trap *)
  check_int "same trap" r.Engine.final_placement.(0) r.Engine.final_placement.(1)

let test_second_gate_same_pair_is_free () =
  (* after the first gate the operands share a trap: the second gate needs no
     routing at all (ion multiplexing in traps) *)
  let p = parse "QUBIT a\nQUBIT b\nC-X a,b\nC-Z a,b\n" in
  let r = run_exn (tile_graph ()) p [| 0; 1 |] in
  check_float "latency = 102 + 100" 202.0 r.Engine.latency;
  check_int "still two moves" 2 (Trace.move_count r.Engine.trace)

let test_commuting_gates_serialize_physically () =
  (* C-X a,b and C-X a,c are QIDG-independent (shared control) but ion a is
     a single physical ion: the engine must serialize them *)
  let p = parse "QUBIT a\nQUBIT b\nQUBIT c\nC-X a,b\nC-X a,c\n" in
  let r = run_exn (tile_graph ()) p [| 0; 1; 2 |] in
  check_bool "at least two gate slots" true (r.Engine.latency >= 200.0);
  (* and the DAG alone would allow 100us of overlap *)
  let dag = Dag.of_program p in
  check_float "logical critical path is one gate" 100.0
    (Dag.critical_path ~delay:(paper_delay Timing.paper) dag)

let test_congestion_wait_accounted () =
  let p = parse "QUBIT a\nQUBIT b\nQUBIT c\nC-X a,b\nC-X a,c\n" in
  let r = run_exn (tile_graph ()) p [| 0; 1; 2 |] in
  (* the second gate waited for ion a: its congestion wait is positive *)
  let breakdown = Breakdown.of_result ~timing:Timing.paper ~dag:(Dag.of_program p) r in
  check_bool "wait recorded" true (breakdown.Breakdown.congestion_us > 0.0)

let test_fig3_on_quale () =
  let p = parse fig3_qasm in
  let graph = quale_graph () in
  let comp = Graph.component graph in
  let center = Layout.center (Component.layout comp) in
  let placement = Array.of_list (List.filteri (fun i _ -> i < 5) (Component.nearest_traps comp center)) in
  let r = run_exn graph p placement in
  (* physical serialization forces >= 610; routing adds more; the paper's
     QSPR result for this circuit is 634 *)
  check_bool "at least the serialized bound" true (r.Engine.latency >= 610.0);
  check_bool "not wildly above the paper's result" true (r.Engine.latency <= 900.0);
  (* every instruction completed and was issued after it was ready *)
  Array.iter
    (fun (s : Engine.instr_stats) ->
      check_bool "issue after ready" true (s.Engine.issued_at >= s.Engine.ready_at -. 1e-9);
      check_bool "complete after issue" true (s.Engine.completed_at >= s.Engine.issued_at -. 1e-9))
    r.Engine.stats

let test_fig3_trace_validates () =
  let p = parse fig3_qasm in
  let graph = quale_graph () in
  let comp = Graph.component graph in
  let center = Layout.center (Component.layout comp) in
  let placement = Array.of_list (List.filteri (fun i _ -> i < 5) (Component.nearest_traps comp center)) in
  let r = run_exn graph p placement in
  check_certified "trace invalid" (certify ~channel_capacity:2 graph p placement r)

let test_fig3_quale_policy_slower () =
  let p = parse fig3_qasm in
  let graph = quale_graph () in
  let comp = Graph.component graph in
  let center = Layout.center (Component.layout comp) in
  let placement = Array.of_list (List.filteri (fun i _ -> i < 5) (Component.nearest_traps comp center)) in
  let qspr = run_exn graph p placement in
  let quale = run_exn ~policy:Engine.quale_policy graph p placement in
  check_bool "QUALE-style mapping is no faster" true
    (quale.Engine.latency >= qspr.Engine.latency -. 1e-9)

let test_quale_policy_trace_validates_capacity_one () =
  let p = parse fig3_qasm in
  let graph = quale_graph () in
  let comp = Graph.component graph in
  let center = Layout.center (Component.layout comp) in
  let placement = Array.of_list (List.filteri (fun i _ -> i < 5) (Component.nearest_traps comp center)) in
  let r = run_exn ~policy:Engine.quale_policy graph p placement in
  check_certified "capacity-1 trace invalid" (certify ~channel_capacity:1 graph p placement r)

let test_engine_determinism () =
  let p = parse fig3_qasm in
  let graph = quale_graph () in
  let comp = Graph.component graph in
  let center = Layout.center (Component.layout comp) in
  let placement = Array.of_list (List.filteri (fun i _ -> i < 5) (Component.nearest_traps comp center)) in
  let r1 = run_exn graph p placement and r2 = run_exn graph p placement in
  check_float "same latency" r1.Engine.latency r2.Engine.latency;
  check_int "same trace length" (List.length r1.Engine.trace) (List.length r2.Engine.trace)

let test_placement_validation () =
  let p = parse "QUBIT a\nQUBIT b\nC-X a,b\n" in
  let g = tile_graph () in
  (match run g p [| 0 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short placement accepted");
  (* two ions may share a trap; three may not *)
  (let p3 = parse "QUBIT a\nQUBIT b\nQUBIT c\nC-X a,b\n" in
   match run g p3 [| 0; 0; 0 |] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "overfull trap accepted");
  (match run g p [| 0; 0 |] with
  | Error e -> Alcotest.failf "shared trap rejected: %s" (Engine.string_of_error e)
  | Ok r -> Alcotest.(check (float 1e-9)) "co-located gate needs no routing" 100.0 r.Engine.latency);
  match run g p [| 0; 999 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range trap accepted"

let test_deadlock_reported () =
  (* two disconnected islands: the 2q gate is unroutable *)
  let lay =
    match Layout.parse "J-JT\n\nJ-JT\n" with
    | Ok l -> l
    | Error e -> Alcotest.failf "layout: %s" e
  in
  let graph = build_graph lay in
  let p = parse "QUBIT a\nQUBIT b\nC-X a,b\n" in
  match run graph p [| 0; 1 |] with
  | Error (Engine.Deadlock { stuck }) -> check_bool "stuck ions counted" true (stuck >= 1)
  | Error e -> Alcotest.failf "expected Deadlock, got: %s" (Engine.string_of_error e)
  | Ok _ -> Alcotest.fail "unroutable program completed"

let test_final_placement_consistent () =
  let p = parse fig3_qasm in
  let graph = quale_graph () in
  let comp = Graph.component graph in
  let center = Layout.center (Component.layout comp) in
  let placement = Array.of_list (List.filteri (fun i _ -> i < 5) (Component.nearest_traps comp center)) in
  let r = run_exn graph p placement in
  let ntraps = Array.length (Component.traps comp) in
  Array.iter (fun t -> check_bool "trap in range" true (t >= 0 && t < ntraps)) r.Engine.final_placement;
  (* no trap holds more than 2 qubits at the end *)
  let load = Array.make ntraps 0 in
  Array.iter (fun t -> load.(t) <- load.(t) + 1) r.Engine.final_placement;
  Array.iter (fun l -> check_bool "trap load <= 2" true (l <= 2)) load

(* ------------------------------------------------------------- Breakdown *)

let test_breakdown_single_gate () =
  let p = parse "QUBIT a\nQUBIT b\nC-X a,b\n" in
  let dag = Dag.of_program p in
  let graph = tile_graph () in
  let tm = Timing.paper in
  let prios = Scheduler.Priority.compute Scheduler.Priority.qspr_default ~delay:(paper_delay tm) dag in
  match Engine.run ~graph ~timing:tm ~policy:Engine.qspr_policy ~dag ~priorities:prios ~placement:[| 0; 1 |] () with
  | Error e -> Alcotest.fail (Engine.string_of_error e)
  | Ok r ->
      let b = Breakdown.of_result ~timing:tm ~dag r in
      check_int "one instruction" 1 b.Breakdown.instructions;
      check_float "gate time" 100.0 b.Breakdown.gate_us;
      (* two trap-hop moves, no turns *)
      check_float "routing time" 2.0 b.Breakdown.routing_us;
      check_float "no congestion" 0.0 b.Breakdown.congestion_us;
      let g, ro, c = Breakdown.per_gate b in
      check_float "per gate" 100.0 g;
      check_float "per gate routing" 2.0 ro;
      check_float "per gate congestion" 0.0 c

let test_breakdown_accounts_wait () =
  let p = parse "QUBIT a\nQUBIT b\nQUBIT c\nC-X a,b\nC-X a,c\n" in
  let dag = Dag.of_program p in
  let graph = tile_graph () in
  let tm = Timing.paper in
  let prios = Scheduler.Priority.compute Scheduler.Priority.qspr_default ~delay:(paper_delay tm) dag in
  match Engine.run ~graph ~timing:tm ~policy:Engine.qspr_policy ~dag ~priorities:prios ~placement:[| 0; 1; 2 |] () with
  | Error e -> Alcotest.fail (Engine.string_of_error e)
  | Ok r ->
      let b = Breakdown.of_result ~timing:tm ~dag r in
      (* the second gate waits for ion a *)
      check_bool "congestion positive" true (b.Breakdown.congestion_us > 0.0)

(* ----------------------------------------------------------------- Trace *)

let test_trace_reverse_preserves_latency () =
  let p = parse fig3_qasm in
  let graph = quale_graph () in
  let comp = Graph.component graph in
  let center = Layout.center (Component.layout comp) in
  let placement = Array.of_list (List.filteri (fun i _ -> i < 5) (Component.nearest_traps comp center)) in
  let r = run_exn graph p placement in
  let rev = Trace.reverse r.Engine.trace in
  check_float "same latency" (Trace.latency r.Engine.trace) (Trace.latency rev);
  check_int "same moves" (Trace.move_count r.Engine.trace) (Trace.move_count rev);
  check_int "same gates" (Trace.gate_count r.Engine.trace) (Trace.gate_count rev);
  (* gate starts become gate ends and vice versa, so double reversal is
     involutive on counts and latency *)
  let rev2 = Trace.reverse rev in
  check_float "involution latency" (Trace.latency r.Engine.trace) (Trace.latency rev2)

let test_trace_qubit_filter () =
  let p = parse "QUBIT a\nQUBIT b\nC-X a,b\n" in
  let r = run_exn (tile_graph ()) p [| 0; 1 |] in
  let q1_cmds = Trace.qubit_commands r.Engine.trace 1 in
  check_bool "q1 has commands" true (List.length q1_cmds > 0);
  List.iter (fun c -> check_bool "only q1" true (List.mem 1 (Micro.qubits_of c))) q1_cmds

let test_trace_to_string () =
  let p = parse "QUBIT a\nH a\n" in
  let r = run_exn (tile_graph ()) p [| 0 |] in
  check_bool "printable" true (String.length (Trace.to_string r.Engine.trace) > 0)

(* -------------------------------------------------------------- Validate *)

(* Hand-forged traces on the small tile, each carrying one physical defect;
   the certifier must reject each with the finding kind naming that defect.
   The claimed latency is the trace's own makespan, so accounting is never
   what fails.  Tile traps: t0=(5,1) t1=(5,3) t2=(5,6) t3=(5,8); (5,2) is a
   cell of the top channel both t0 and t1 tap into; (2,2) is a junction.
   In the one-gate program the gate is instruction #1, after the qubit
   declaration. *)
let certify_forged ?(program = "QUBIT a\n") ?(capacity = 2) ~placement trace =
  Analysis.Certify.check ~component:(Graph.component (tile_graph ())) ~timing:Timing.paper
    ~channel_capacity:capacity ~junction_capacity:capacity ~dag:(Dag.of_program (parse program))
    ~initial_placement:placement ~claimed_latency:(Trace.latency trace) trace

let check_rejected kind (c : Analysis.Certify.certificate) =
  check_bool "rejected" false c.Analysis.Certify.valid;
  if not (List.exists (fun f -> Analysis.Finding.kind f = Some kind) c.Analysis.Certify.findings) then
    Alcotest.failf "no %s finding among:\n%s" kind (findings_report c)

let move q (x0, y0) (x1, y1) start finish =
  Micro.Move { qubit = q; from_ = Coord.make x0 y0; to_ = Coord.make x1 y1; start; finish }

let test_validate_catches_teleport () =
  (* the ion rests in t0 at (5,1) but the move departs from (4,2) *)
  check_rejected "teleport" (certify_forged ~placement:[| 0 |] [ move 0 (4, 2) (3, 2) 0.0 1.0 ]);
  (* a two-cell jump out of the right cell is no unit step *)
  check_rejected "bad-step" (certify_forged ~placement:[| 0 |] [ move 0 (5, 1) (5, 3) 0.0 1.0 ])

let test_validate_catches_wrong_gate_site () =
  let trap = Coord.make 2 2 in
  check_rejected "gate-site"
    (certify_forged ~program:"QUBIT a\nH a\n" ~placement:[| 0 |]
       [
         Micro.Gate_start { instr_id = 1; trap; qubits = [ 0 ]; time = 0.0 };
         Micro.Gate_end { instr_id = 1; trap; qubits = [ 0 ]; time = 10.0 };
       ])

let test_validate_catches_capacity_violation () =
  (* two ions leave t0 and one leaves t1, all into the (5,2) channel cell
     at once: every move is continuous and unit-step, but three ions share
     a capacity-2 segment *)
  let c =
    certify_forged ~program:"QUBIT a\nQUBIT b\nQUBIT c\n" ~placement:[| 0; 0; 1 |]
      [ move 0 (5, 1) (5, 2) 0.0 1.0; move 1 (5, 1) (5, 2) 0.0 1.0; move 2 (5, 3) (5, 2) 0.0 1.0 ]
  in
  check_rejected "capacity" c;
  check_bool "capacity is the only error" true
    (List.for_all
       (fun f -> f.Analysis.Finding.severity <> Analysis.Finding.Error || Analysis.Finding.kind f = Some "capacity")
       c.Analysis.Certify.findings)

let test_validate_never_ended_gate () =
  (* qubit 0 rests in t0 = (5,1); its gate starts there but never ends *)
  check_rejected "gate-pairing"
    (certify_forged ~program:"QUBIT a\nH a\n" ~placement:[| 0 |]
       [ Micro.Gate_start { instr_id = 1; trap = Coord.make 5 1; qubits = [ 0 ]; time = 0.0 } ])

(* Findings come out in a documented order: the replay's, then dangling
   gates by instruction id, then capacity by resource id (segments before
   junctions).  Here q0 and q1 leave t0 and t1 together and ride the top
   segment into the junction (2,2) side by side, at capacity 1; q3 and q2
   start H d (#5) and H c (#4), in that order, and never end them. *)
let test_validate_finding_order () =
  let walk q (x0, y0) =
    [
      move q (x0, y0) (5, 2) 0.0 1.0;
      move q (5, 2) (4, 2) 1.0 2.0;
      move q (4, 2) (3, 2) 2.0 3.0;
      move q (3, 2) (2, 2) 3.0 4.0;
    ]
  in
  let start instr_id q (x, y) =
    Micro.Gate_start { instr_id; trap = Coord.make x y; qubits = [ q ]; time = 0.0 }
  in
  let c =
    certify_forged ~capacity:1 ~program:"QUBIT a\nQUBIT b\nQUBIT c\nQUBIT d\nH c\nH d\n"
      ~placement:[| 0; 1; 2; 3 |]
      ((start 5 3 (5, 8) :: start 4 2 (5, 6) :: walk 0 (5, 1)) @ walk 1 (5, 3))
  in
  let show f =
    Printf.sprintf "%s@%s"
      (Option.value ~default:"?" (Analysis.Finding.kind f))
      (Option.value ~default:"-" (Analysis.Finding.loc_string f.Analysis.Finding.loc))
  in
  Alcotest.(check (list string))
    "kind@loc sequence"
    [ "gate-pairing@instr#4"; "gate-pairing@instr#5"; "capacity@(3,2)"; "capacity@(2,2)" ]
    (List.map show c.Analysis.Certify.findings);
  let level_time f =
    let data key = Ion_util.Json.member key f.Analysis.Finding.json in
    match (data "level", data "time_us") with
    | Some (Ion_util.Json.Int l), Some (Ion_util.Json.Float t) -> (l, t)
    | _ -> Alcotest.fail "capacity finding without level and time_us"
  in
  Alcotest.(check (list (pair int (float 0.0))))
    "capacity level and time" [ (2, 0.0); (2, 3.0) ]
    (List.filter_map
       (fun f -> if Analysis.Finding.kind f = Some "capacity" then Some (level_time f) else None)
       c.Analysis.Certify.findings)

(* A forged trace can break a rule on every command; the certificate keeps
   the first 40 errors and then says how many it dropped. *)
let test_validate_truncation_noted () =
  (* the ion rests in t0 at (5,1); every one of 60 moves departs (4,2) *)
  let trace =
    List.init 60 (fun i -> move 0 (4, 2) (3, 2) (float_of_int i) (float_of_int (i + 1)))
  in
  let c = certify_forged ~placement:[| 0 |] trace in
  let fs = c.Analysis.Certify.findings in
  check_bool "rejected" false c.Analysis.Certify.valid;
  check_int "40 errors" 40 (Analysis.Finding.count Analysis.Finding.Error fs);
  check_int "41 findings" 41 (List.length fs);
  let last = List.nth fs 40 in
  check_bool "truncated last" true (Analysis.Finding.kind last = Some "truncated");
  check_bool "a warning" true (last.Analysis.Finding.severity = Analysis.Finding.Warning);
  Alcotest.(check string) "count" "20 further finding(s) suppressed" last.Analysis.Finding.message

let test_validate_wrong_durations () =
  (* a move must take exactly t_move *)
  check_rejected "bad-duration" (certify_forged ~placement:[| 0 |] [ move 0 (5, 1) (5, 2) 0.0 3.0 ])

(* ----------------------------------------------------------- ingress pins *)

(* Engine outputs on ingress-shaped jobs: 40 seeded random Clifford
   programs (6-19 qubits, 40-440 gates), each mapped with center placement
   on the service benchmark's four fabrics.  One route cache per fabric is
   shared by its 40 jobs in order, so warm-cache hits are pinned too.  Per
   fabric there are two pins:
   - the output fold, an FNV-1a 64 fold over every job's latency bits and
     certificate digest — what the jobs answer;
   - the work row, the route-search, cache-hit and settled-node totals —
     what answering cost the router (a search that visits more nodes for
     the same paths shows here).
   Scheduler, router and engine rewrites must leave every output fold
   untouched; an exact search skip may lower only the work row. *)
let ingress_fabrics () =
  [
    ("quale 45x85", Layout.quale_45x85 ());
    ( "grid 45x27",
      Layout.make_grid ~width:45 ~height:27 ~pitch_x:8 ~pitch_y:6 ~margin:2 ~traps_per_channel:1 () );
    ( "grid 29x21",
      Layout.make_grid ~width:29 ~height:21 ~pitch_x:6 ~pitch_y:5 ~margin:2 ~traps_per_channel:1 () );
    ("linear 40", Layout.linear ~traps:40 ());
  ]

let ingress_programs () =
  let rng = Ion_util.Rng.create 2023 in
  List.init 40 (fun _ ->
      let num_qubits = 6 + Ion_util.Rng.int rng 14 in
      let gates = 40 + Ion_util.Rng.int rng 401 in
      Circuits.Library.random_clifford rng ~num_qubits ~gates)

let fnv_add h (x : int64) =
  let h = ref h in
  for i = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical x (8 * i)) 0xffL in
    h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
  done;
  !h

(* (output fold, (searches, hits, settled nodes)) for one fabric *)
let ingress_row programs lay =
  let graph = build_graph lay in
  let comp = Graph.component graph in
  let cache = Route_cache.create () in
  Route_cache.for_graph cache graph;
  List.fold_left
    (fun (h, (searches, hits, settled)) p ->
      let placement = Placer.Center.place comp ~num_qubits:(Program.num_qubits p) in
      let tm = Timing.paper and policy = Engine.qspr_policy in
      let dag = Dag.of_program p in
      let priorities =
        Scheduler.Priority.compute Scheduler.Priority.qspr_default ~delay:(paper_delay tm) dag
      in
      match Engine.run ~graph ~timing:tm ~policy ~dag ~priorities ~placement ~route_cache:cache () with
      | Error e -> Alcotest.failf "engine: %s" (Engine.string_of_error e)
      | Ok r ->
          let c = certify ~channel_capacity:policy.Engine.channel_capacity graph p placement r in
          check_certified "ingress job" c;
          let h = fnv_add h (Int64.bits_of_float r.Engine.latency) in
          let h = fnv_add h c.Analysis.Certify.digest in
          ( h,
            ( searches + r.Engine.route_searches,
              hits + r.Engine.route_cache_hits,
              settled + r.Engine.settled_nodes ) ))
    (0xcbf29ce484222325L, (0, 0, 0)) programs

let ingress_output_pins =
  [
    ("quale 45x85", -4650966727897606380L);
    ("grid 45x27", -1222979014099059422L);
    ("grid 29x21", -1148434425539977033L);
    ("linear 40", 8234479574523313296L);
  ]

let ingress_work_pins =
  [
    ("quale 45x85", (4546, 1752, 131636));
    ("grid 45x27", (4398, 1892, 116660));
    ("grid 29x21", (4316, 1939, 88286));
    ("linear 40", (3306, 2562, 49578));
  ]

let test_ingress_pins () =
  let programs = ingress_programs () in
  let rows = List.map (fun (name, lay) -> (name, ingress_row programs lay)) (ingress_fabrics ()) in
  let show_fold (name, h) = Printf.sprintf "%s: fold %LdL" name h in
  let show_work (name, (s, k, n)) = Printf.sprintf "%s: %d searches, %d hits, %d settled" name s k n in
  Alcotest.(check (list string))
    "ingress output folds" (List.map show_fold ingress_output_pins)
    (List.map (fun (name, (h, _)) -> show_fold (name, h)) rows);
  Alcotest.(check (list string))
    "ingress work rows" (List.map show_work ingress_work_pins)
    (List.map (fun (name, (_, w)) -> show_work (name, w)) rows)

(* property: [Engine.score] is [Engine.run] without materialization.  On
   random Clifford programs, placements and fabrics, under both engine
   policies, forward (QIDG) and backward (UIDG, started from the forward
   run's final placement, where gate pairs share traps as in MVFB), both
   entry points agree bit for bit on latency, final placement and route
   counters — or fail with the same error.  Each side gets a fresh route
   cache, so the counters compare like for like. *)
let score_fabrics =
  lazy
    (List.map
       (fun (_, lay) -> build_graph lay)
       (List.filter (fun (name, _) -> name <> "grid 45x27") (ingress_fabrics ())))

let prop_score_equals_run =
  QCheck.Test.make ~count:60 ~name:"score = run on latency, placement and route counters"
    QCheck.(quad small_nat (int_range 0 2) bool bool)
    (fun (seed, fabric, quale, backward) ->
      let graph = List.nth (Lazy.force score_fabrics) fabric in
      let comp = Graph.component graph in
      let rng = Ion_util.Rng.create seed in
      let num_qubits = 2 + Ion_util.Rng.int rng 9 in
      let p = Circuits.Library.random_clifford rng ~num_qubits ~gates:(5 + Ion_util.Rng.int rng 80) in
      let tm = Timing.paper in
      let policy = if quale then Engine.quale_policy else Engine.qspr_policy in
      let priorities_of dag =
        Scheduler.Priority.compute Scheduler.Priority.qspr_default ~delay:(paper_delay tm) dag
      in
      let fresh () = Some (Route_cache.create ()) in
      let both dag placement =
        let priorities = priorities_of dag in
        ( Engine.score ~graph ~timing:tm ~policy ~dag ~priorities ~placement ?route_cache:(fresh ()) (),
          Engine.run ~graph ~timing:tm ~policy ~dag ~priorities ~placement ?route_cache:(fresh ()) () )
      in
      let agree = function
        | Ok (s : Engine.score), Ok (r : Engine.result) ->
            Int64.equal (Int64.bits_of_float s.latency) (Int64.bits_of_float r.latency)
            && s.final_placement = r.final_placement
            && s.route_searches = r.route_searches
            && s.route_cache_hits = r.route_cache_hits
            && s.settled_nodes = r.settled_nodes
        | Error a, Error b -> a = b
        | Ok _, Error _ | Error _, Ok _ -> false
      in
      let dag = Dag.of_program p in
      let start = Placer.Center.place_permuted rng comp ~num_qubits in
      let forward = both dag start in
      agree forward
      && ((not backward)
         ||
         match (snd forward, Dag.reverse dag) with
         | Ok r, Ok udag -> agree (both udag r.Engine.final_placement)
         | Ok _, Error e -> QCheck.Test.fail_reportf "Dag.reverse: %s" e
         | Error _, _ -> true (* both failed alike: no final placement to start from *)))

let () =
  Alcotest.run "simulator"
    [
      ( "engine",
        [
          Alcotest.test_case "single 1q gate" `Quick test_single_1q_gate;
          Alcotest.test_case "single 2q gate, adjacent traps" `Quick test_single_2q_adjacent_traps;
          Alcotest.test_case "second gate same pair free" `Quick test_second_gate_same_pair_is_free;
          Alcotest.test_case "commuting gates serialize" `Quick test_commuting_gates_serialize_physically;
          Alcotest.test_case "congestion wait accounted" `Quick test_congestion_wait_accounted;
          Alcotest.test_case "fig3 on 45x85" `Quick test_fig3_on_quale;
          Alcotest.test_case "fig3 trace validates" `Quick test_fig3_trace_validates;
          Alcotest.test_case "quale policy no faster" `Quick test_fig3_quale_policy_slower;
          Alcotest.test_case "quale trace validates at capacity 1" `Quick
            test_quale_policy_trace_validates_capacity_one;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "placement validation" `Quick test_placement_validation;
          Alcotest.test_case "deadlock reported" `Quick test_deadlock_reported;
          Alcotest.test_case "final placement consistent" `Quick test_final_placement_consistent;
          Alcotest.test_case "ingress pins" `Quick test_ingress_pins;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_score_equals_run ] );
      ( "breakdown",
        [
          Alcotest.test_case "single gate" `Quick test_breakdown_single_gate;
          Alcotest.test_case "accounts wait" `Quick test_breakdown_accounts_wait;
        ] );
      ( "trace",
        [
          Alcotest.test_case "reverse preserves latency" `Quick test_trace_reverse_preserves_latency;
          Alcotest.test_case "qubit filter" `Quick test_trace_qubit_filter;
          Alcotest.test_case "to_string" `Quick test_trace_to_string;
        ] );
      ( "validate",
        [
          Alcotest.test_case "teleport rejected" `Quick test_validate_catches_teleport;
          Alcotest.test_case "wrong gate site rejected" `Quick test_validate_catches_wrong_gate_site;
          Alcotest.test_case "capacity violation rejected" `Quick test_validate_catches_capacity_violation;
          Alcotest.test_case "never-ended gate rejected" `Quick test_validate_never_ended_gate;
          Alcotest.test_case "wrong durations rejected" `Quick test_validate_wrong_durations;
          Alcotest.test_case "finding order" `Quick test_validate_finding_order;
          Alcotest.test_case "truncation noted" `Quick test_validate_truncation_noted;
        ] );
    ]
