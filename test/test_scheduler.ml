(* Tests for scheduling priorities (Section III) and the ready-set / busy
   queue machinery that drives the engine's list scheduler. *)

open Qasm
open Scheduler

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* [Ready_set] with the ids a completion readied gathered into a list *)
module Listed = struct
  include Ready_set

  let mark_done t i = List.init (mark_done t i) (readied t)
end

let fig3_qasm =
  "QUBIT q0,0\nQUBIT q1,0\nQUBIT q2,0\nQUBIT q3\nQUBIT q4,0\n" ^ "H q0\nH q1\nH q2\nH q4\n"
  ^ "C-X q3,q2\nC-Z q4,q2\nC-Y q2,q1\nC-Y q3,q1\nC-X q4,q1\nC-Z q2,q0\nC-Y q3,q0\nC-Z q4,q0\n"

let fig3_dag () =
  match Parser.parse ~name:"fig3" fig3_qasm with
  | Ok p -> Dag.of_program p
  | Error e -> Alcotest.failf "parse: %s" e

let paper_delay = function
  | Instr.Qubit_decl _ -> 0.0
  | Instr.Gate1 _ -> 10.0
  | Instr.Gate2 _ -> 100.0

(* ------------------------------------------------------------- Priority *)

let test_qspr_priority_orders_critical_path_first () =
  let g = fig3_dag () in
  let prios = Priority.compute Priority.qspr_default ~delay:paper_delay g in
  (* H q2 (node 7) lies on the critical path with all 8 2q gates dependent:
     8 + 510; H q0 (node 5) has 3 dependents and a 310us tail *)
  check_bool "H q2 beats H q0" true (prios.(7) > prios.(5));
  check_bool "H q2 value" true (Float.abs (prios.(7) -. 518.0) < 1e-9);
  check_bool "H q0 value" true (Float.abs (prios.(5) -. 313.0) < 1e-9)

let test_alap_priority () =
  let g = fig3_dag () in
  let prios = Priority.compute Priority.Alap ~delay:paper_delay g in
  (* zero-slack nodes have the highest (zero) priority *)
  check_bool "critical node at 0" true (Float.abs prios.(7) < 1e-9);
  check_bool "slack node negative" true (prios.(5) < 0.0)

let test_dependents_count_priority () =
  let g = fig3_dag () in
  let prios = Priority.compute Priority.Dependents_count ~delay:paper_delay g in
  check_bool "H q2 has 8 dependents" true (Float.abs (prios.(7) -. 8.0) < 1e-9)

let test_dependent_delay_priority () =
  let g = fig3_dag () in
  let prios = Priority.compute Priority.Dependent_delay ~delay:paper_delay g in
  (* all 8 two-qubit gates depend on H q2: total 800us of dependent work *)
  check_bool "H q2 dependent delay" true (Float.abs (prios.(7) -. 800.0) < 1e-9);
  (* sink has none *)
  check_bool "sink zero" true (Float.abs prios.(16) < 1e-9)

let test_fixed_priority_guard () =
  let g = fig3_dag () in
  match Priority.compute (Priority.Fixed [| 1.0 |]) ~delay:paper_delay g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong-length Fixed accepted"

let test_order_of_priorities () =
  let order = Priority.order_of_priorities [| 1.0; 5.0; 5.0; 0.0 |] in
  Alcotest.(check (array int)) "sorted desc, stable" [| 1; 2; 0; 3 |] order

let test_replay_order_roundtrip () =
  let g = fig3_dag () in
  let prios = Priority.compute Priority.qspr_default ~delay:paper_delay g in
  let order = Priority.order_of_priorities prios in
  let replay = Priority.compute (Priority.replay_order order) ~delay:paper_delay g in
  let order' = Priority.order_of_priorities replay in
  Alcotest.(check (array int)) "replay reproduces the order" order order'

(* ------------------------------------------------------------ Ready_set *)

let test_ready_initial () =
  let g = fig3_dag () in
  let rs = Ready_set.create g ~priorities:(Array.make (Dag.num_nodes g) 0.0) in
  (* exactly the 5 declarations are initially ready *)
  Alcotest.(check (list int)) "decls ready" [ 0; 1; 2; 3; 4 ] (List.sort compare (Ready_set.ready rs));
  check_bool "not all done" false (Ready_set.all_done rs)

let test_ready_priority_order () =
  let g = fig3_dag () in
  let prios = Array.make (Dag.num_nodes g) 0.0 in
  prios.(2) <- 5.0;
  prios.(4) <- 3.0;
  let rs = Ready_set.create g ~priorities:prios in
  (match Ready_set.ready rs with
  | a :: b :: _ ->
      check_int "highest first" 2 a;
      check_int "second" 4 b
  | _ -> Alcotest.fail "too few ready");
  ()

let test_ready_unblocking () =
  let g = fig3_dag () in
  let rs = Ready_set.create g ~priorities:(Array.make (Dag.num_nodes g) 0.0) in
  (* completing all declarations readies the H gates *)
  List.iter (fun i -> ignore (Ready_set.mark_done rs i)) [ 0; 1; 2; 4 ];
  let newly = Listed.mark_done rs 3 in
  check_bool "C-X q3,q2 ready after q3 and H q2... not yet (H q2 pending)" true
    (not (List.mem 9 newly));
  check_bool "H gates ready" true (List.mem 5 (Ready_set.ready rs));
  (* finish H q2 (node 7): C-X q3,q2 (node 9) becomes ready *)
  ignore (Ready_set.mark_issued rs 7);
  let newly = Listed.mark_done rs 7 in
  check_bool "node 9 readied" true (List.mem 9 newly)

let test_ready_defer_requeue () =
  let g = fig3_dag () in
  let rs = Ready_set.create g ~priorities:(Array.make (Dag.num_nodes g) 0.0) in
  Ready_set.defer rs 0;
  check_int "busy" 1 (Ready_set.busy_count rs);
  check_bool "not ready while deferred" false (Ready_set.is_ready rs 0);
  Ready_set.requeue_busy rs;
  check_int "busy drained" 0 (Ready_set.busy_count rs);
  check_bool "ready again" true (Ready_set.is_ready rs 0)

let test_ready_errors () =
  let g = fig3_dag () in
  let rs = Ready_set.create g ~priorities:(Array.make (Dag.num_nodes g) 0.0) in
  (match Ready_set.mark_issued rs 9 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "issuing a waiting instruction accepted");
  match Ready_set.mark_done rs 9 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "completing a waiting instruction accepted"

let test_ready_full_drain () =
  let g = fig3_dag () in
  let n = Dag.num_nodes g in
  let rs = Ready_set.create g ~priorities:(Array.make n 0.0) in
  (* repeatedly complete any ready instruction; must drain the whole DAG *)
  let steps = ref 0 in
  while (not (Ready_set.all_done rs)) && !steps < 1000 do
    (match Ready_set.ready rs with
    | [] -> Alcotest.fail "stuck with nothing ready"
    | i :: _ -> ignore (Ready_set.mark_done rs i));
    incr steps
  done;
  check_int "all completed" n (Ready_set.done_count rs)

(* property: under any priority assignment, draining respects dependencies *)
let prop_drain_respects_deps =
  QCheck.Test.make ~name:"ready-set drain is a topological order" ~count:100
    QCheck.(list_of_size Gen.(return 17) (float_bound_exclusive 100.0))
    (fun prios_list ->
      let g = fig3_dag () in
      let n = Dag.num_nodes g in
      let prios = Array.of_list prios_list in
      if Array.length prios <> n then true
      else begin
        let rs = Ready_set.create g ~priorities:prios in
        let order = ref [] in
        let ok = ref true in
        let steps = ref 0 in
        while (not (Ready_set.all_done rs)) && !steps < 1000 do
          (match Ready_set.ready rs with
          | [] -> ok := false
          | i :: _ ->
              order := i :: !order;
              ignore (Ready_set.mark_done rs i));
          incr steps
        done;
        let seen = Array.make n false in
        List.iter
          (fun i ->
            List.iter (fun p -> if not seen.(p) then ok := false) (Dag.node g i).Dag.preds;
            seen.(i) <- true)
          (List.rev !order);
        !ok
      end)

(* The whole-array scan the incremental ready set replaced, kept as the
   reference: every query walks all [n] statuses. *)
module Scan = struct
  type status = Waiting | Ready | Deferred | In_flight | Done

  type t = {
    dag : Dag.t;
    priorities : float array;
    status : status array;
    pending_preds : int array;
    mutable n_done : int;
    mutable n_busy : int;
    mutable n_flight : int;
  }

  let create dag ~priorities =
    let n = Dag.num_nodes dag in
    let pending_preds = Array.init n (fun i -> List.length (Dag.node dag i).Dag.preds) in
    let status = Array.init n (fun i -> if pending_preds.(i) = 0 then Ready else Waiting) in
    { dag; priorities; status; pending_preds; n_done = 0; n_busy = 0; n_flight = 0 }

  let ready t =
    let ids = ref [] in
    Array.iteri (fun i s -> if s = Ready then ids := i :: !ids) t.status;
    List.sort
      (fun a b ->
        match Float.compare t.priorities.(b) t.priorities.(a) with 0 -> Int.compare a b | c -> c)
      !ids

  let ready_count t = List.length (ready t)
  let iter_ready t f = List.iter f (ready t)
  let is_ready t i = t.status.(i) = Ready

  let mark_issued t i =
    if t.status.(i) <> Ready then invalid_arg "Scan.mark_issued";
    t.status.(i) <- In_flight;
    t.n_flight <- t.n_flight + 1

  let mark_done t i =
    (match t.status.(i) with
    | In_flight -> t.n_flight <- t.n_flight - 1
    | Ready -> ()
    | Waiting | Deferred | Done -> invalid_arg "Scan.mark_done");
    t.status.(i) <- Done;
    t.n_done <- t.n_done + 1;
    List.filter
      (fun s ->
        t.pending_preds.(s) <- t.pending_preds.(s) - 1;
        if t.pending_preds.(s) = 0 && t.status.(s) = Waiting then begin
          t.status.(s) <- Ready;
          true
        end
        else false)
      (Dag.node t.dag i).Dag.succs

  let defer t i =
    if t.status.(i) <> Ready then invalid_arg "Scan.defer";
    t.status.(i) <- Deferred;
    t.n_busy <- t.n_busy + 1

  let requeue_busy t =
    Array.iteri (fun i s -> if s = Deferred then t.status.(i) <- Ready) t.status;
    t.n_busy <- 0

  let busy_count t = t.n_busy
  let done_count t = t.n_done
  let in_flight_count t = t.n_flight
end

module type FRONTIER = sig
  type t

  val create : Dag.t -> priorities:float array -> t
  val ready : t -> int list
  val ready_count : t -> int
  val iter_ready : t -> (int -> unit) -> unit
  val is_ready : t -> int -> bool
  val mark_issued : t -> int -> unit
  val mark_done : t -> int -> int list
  val defer : t -> int -> unit
  val requeue_busy : t -> unit
  val busy_count : t -> int
  val done_count : t -> int
  val in_flight_count : t -> int
end

(* Drives one frontier through an operation script and logs every
   observation: [iter_ready] visit sequences (the callback itself issues,
   defers or completes), [mark_done]'s newly-ready lists, refused
   operations, and after each step [ready] and the four counts.  The
   in-flight ids are tracked here, in issue order. *)
let frontier_log (module F : FRONTIER) dag priorities ops =
  let n = Dag.num_nodes dag in
  let t = F.create dag ~priorities in
  let log = Buffer.create 1024 in
  let say fmt = Printf.bprintf log fmt in
  let flying = ref [] in
  let nth l k = List.nth l (k mod List.length l) in
  let issue i =
    F.mark_issued t i;
    flying := !flying @ [ i ]
  in
  let complete i =
    flying := List.filter (( <> ) i) !flying;
    say "done %d -> [%s]\n" i (String.concat "," (List.map string_of_int (F.mark_done t i)))
  in
  let guarded what f = try f () with Invalid_argument _ -> say "refused %s\n" what in
  List.iter
    (fun (op, k) ->
      (match op with
      | 0 | 1 ->
          let rng = Ion_util.Rng.create k in
          say "visit";
          F.iter_ready t (fun i ->
              say " %d" i;
              if F.is_ready t i then
                match Ion_util.Rng.int rng 4 with
                | 0 -> issue i
                | 1 -> F.defer t i
                | 2 -> complete i
                | _ -> ());
          say "\n"
      | 2 -> if F.ready t <> [] then issue (nth (F.ready t) k)
      | 3 -> if F.ready t <> [] then F.defer t (nth (F.ready t) k)
      | 4 | 5 -> if !flying <> [] then complete (nth !flying k)
      | 6 -> if F.ready t <> [] then complete (nth (F.ready t) k)
      | 7 -> F.requeue_busy t
      | _ ->
          let i = k mod n in
          guarded "issue" (fun () -> issue i);
          guarded "done" (fun () -> complete i);
          guarded "defer" (fun () -> F.defer t i));
      say "ready [%s] count %d busy %d done %d flight %d\n"
        (String.concat "," (List.map string_of_int (F.ready t)))
        (F.ready_count t) (F.busy_count t) (F.done_count t) (F.in_flight_count t))
    ops;
  Buffer.contents log

(* random Clifford programs, priorities from four levels (so ties are
   common), and 0..300 operations *)
let arb_frontier_case =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* qubits = 2 -- 8 in
      let* gates = 0 -- 60 in
      let* levels = int_bound 1_000_000 in
      let* ops = list_size (0 -- 300) (pair (int_bound 8) (int_bound 1_000_000)) in
      return (seed, qubits, gates, levels, ops))
  in
  QCheck.make
    ~print:(fun (seed, qubits, gates, levels, ops) ->
      Printf.sprintf "seed=%d qubits=%d gates=%d levels=%d ops=[%s]" seed qubits gates levels
        (String.concat ";" (List.map (fun (o, k) -> Printf.sprintf "%d,%d" o k) ops)))
    gen

let prop_frontier_matches_scan =
  QCheck.Test.make ~name:"incremental frontier = status-array scan" ~count:300 arb_frontier_case
    (fun (seed, qubits, gates, levels, ops) ->
      let p = Circuits.Library.random_clifford (Ion_util.Rng.create seed) ~num_qubits:qubits ~gates in
      let dag = Dag.of_program p in
      let rng = Ion_util.Rng.create levels in
      let priorities = Array.init (Dag.num_nodes dag) (fun _ -> float_of_int (Ion_util.Rng.int rng 4)) in
      let incremental = frontier_log (module Listed) dag priorities ops in
      let scan = frontier_log (module Scan) dag priorities ops in
      if incremental = scan then true
      else QCheck.Test.fail_reportf "incremental:\n%s\nscan:\n%s" incremental scan)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "scheduler"
    [
      ( "priority",
        [
          Alcotest.test_case "qspr policy" `Quick test_qspr_priority_orders_critical_path_first;
          Alcotest.test_case "alap policy" `Quick test_alap_priority;
          Alcotest.test_case "dependents count" `Quick test_dependents_count_priority;
          Alcotest.test_case "dependent delay" `Quick test_dependent_delay_priority;
          Alcotest.test_case "fixed guard" `Quick test_fixed_priority_guard;
          Alcotest.test_case "order extraction" `Quick test_order_of_priorities;
          Alcotest.test_case "replay roundtrip" `Quick test_replay_order_roundtrip;
        ] );
      ( "ready_set",
        [
          Alcotest.test_case "initial" `Quick test_ready_initial;
          Alcotest.test_case "priority order" `Quick test_ready_priority_order;
          Alcotest.test_case "unblocking" `Quick test_ready_unblocking;
          Alcotest.test_case "defer/requeue" `Quick test_ready_defer_requeue;
          Alcotest.test_case "errors" `Quick test_ready_errors;
          Alcotest.test_case "full drain" `Quick test_ready_full_drain;
        ]
        @ qsuite [ prop_drain_respects_deps; prop_frontier_matches_scan ] );
    ]
