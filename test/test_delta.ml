(* Tests of the incremental delta estimator and the racing placer
   portfolio: transactional undo restores the state bitwise, long random
   swap/move chains agree with a from-scratch evaluation on every Table-1
   circuit, resync reports zero drift, the portfolio race is bit-identical
   across Domain_pool job counts, and it never loses to the classic routed
   anneal at matched budgets. *)

open Qspr

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fabric () = Fabric.Layout.quale_45x85 ()

let table1 =
  [ "[[5,1,3]]"; "[[7,1,3]]"; "[[9,1,3]]"; "[[14,8,3]]"; "[[19,1,7]]"; "[[23,1,7]]" ]

let ctx_of ?(config = Config.default) name =
  let program = List.assoc name (Circuits.Qecc.all ()) in
  match Mapper.create ~fabric:(fabric ()) ~config program with
  | Ok c -> c
  | Error e -> Alcotest.failf "Mapper.create: %s" e

(* [strategy] on [ctx] at [m] seeds or anneal steps, [sa_moves] delta-SA
   moves per stream, on [jobs] domains *)
let map_at ~m ?(jobs = 1) ?(sa_moves = Config.default.Config.sa_moves) strategy ctx =
  let tune c = Config.(c |> with_m m |> with_jobs jobs |> with_sa_moves sa_moves) in
  Mapper.map strategy (Mapper.with_search tune ctx)

let delta_of name =
  let ctx = ctx_of name in
  let model = Mapper.estimator_model ctx in
  let nq = Qasm.Program.num_qubits (Mapper.program ctx) in
  let placement = Placer.Center.place (Mapper.component ctx) ~num_qubits:nq in
  (model, nq, Estimator.Delta.create model placement)

(* Drive a committed chain of random valid proposals — the same move mix
   the annealer draws — through the delta state. *)
let random_chain delta rng ~nq ~steps =
  let ntr = Estimator.Delta.num_traps delta in
  for _ = 1 to steps do
    if nq >= 2 && Ion_util.Rng.bool rng then begin
      let i = Ion_util.Rng.int rng nq in
      let j = (i + 1 + Ion_util.Rng.int rng (nq - 1)) mod nq in
      ignore (Estimator.Delta.apply_swap delta i j);
      Estimator.Delta.commit delta
    end
    else begin
      let q = Ion_util.Rng.int rng nq in
      let trap = Ion_util.Rng.int rng ntr in
      if Estimator.Delta.occupant delta trap < 0 then begin
        ignore (Estimator.Delta.apply_move delta q trap);
        Estimator.Delta.commit delta
      end
    end
  done

(* ----------------------------------------------------------------- undo *)

let test_undo_restores_state () =
  let _, nq, delta = delta_of "[[9,1,3]]" in
  let ntr = Estimator.Delta.num_traps delta in
  let snap_place = Estimator.Delta.placement delta in
  let snap_occ = Array.init ntr (Estimator.Delta.occupant delta) in
  let snap_lat = Estimator.Delta.latency delta in
  let rng = Ion_util.Rng.create 4242 in
  for _ = 1 to 500 do
    (if Ion_util.Rng.bool rng then begin
       let i = Ion_util.Rng.int rng nq in
       let j = (i + 1 + Ion_util.Rng.int rng (nq - 1)) mod nq in
       ignore (Estimator.Delta.apply_swap delta i j)
     end
     else begin
       let q = Ion_util.Rng.int rng nq in
       let trap = Ion_util.Rng.int rng ntr in
       if Estimator.Delta.occupant delta trap < 0 then ignore (Estimator.Delta.apply_move delta q trap)
     end);
    if Estimator.Delta.in_transaction delta then Estimator.Delta.undo delta;
    check_bool "placement restored" true (Estimator.Delta.placement delta = snap_place);
    check_bool "latency restored bitwise" true (Estimator.Delta.latency delta = snap_lat)
  done;
  check_bool "occupancy restored" true (Array.init ntr (Estimator.Delta.occupant delta) = snap_occ);
  check_bool "node state restored (zero drift)" true (Estimator.Delta.resync delta = 0.0)

let test_delta_equals_latency_difference () =
  let _, _, delta = delta_of "[[7,1,3]]" in
  let before = Estimator.Delta.latency delta in
  let d = Estimator.Delta.apply_swap delta 0 3 in
  check_bool "delta = after - before" true (d = Estimator.Delta.latency delta -. before);
  Estimator.Delta.commit delta

(* ----------------------------------------------------------- swap chains *)

let test_chain_matches_scratch () =
  List.iter
    (fun name ->
      let model, nq, delta = delta_of name in
      let rng = Ion_util.Rng.create 77 in
      random_chain delta rng ~nq ~steps:2_000;
      let incremental = Estimator.Delta.latency delta in
      let scratch = Estimator.Delta.eval model (Estimator.Delta.placement delta) in
      let rel = Float.abs (incremental -. scratch) /. Float.max 1.0 (Float.abs scratch) in
      if rel > 1e-6 then
        Alcotest.failf "%s: incremental %.9f vs scratch %.9f (rel %.3e)" name incremental scratch rel;
      check_bool (name ^ " resync reports zero drift") true (Estimator.Delta.resync delta = 0.0))
    table1

let test_chain_with_undo_matches_scratch () =
  let model, nq, delta = delta_of "[[14,8,3]]" in
  let ntr = Estimator.Delta.num_traps delta in
  let rng = Ion_util.Rng.create 13 in
  (* interleave accepted and rejected moves like a real anneal does *)
  for _ = 1 to 3_000 do
    (if Ion_util.Rng.bool rng then begin
       let i = Ion_util.Rng.int rng nq in
       let j = (i + 1 + Ion_util.Rng.int rng (nq - 1)) mod nq in
       ignore (Estimator.Delta.apply_swap delta i j)
     end
     else begin
       let q = Ion_util.Rng.int rng nq in
       let trap = Ion_util.Rng.int rng ntr in
       if Estimator.Delta.occupant delta trap < 0 then ignore (Estimator.Delta.apply_move delta q trap)
     end);
    if Estimator.Delta.in_transaction delta then
      if Ion_util.Rng.bool rng then Estimator.Delta.commit delta else Estimator.Delta.undo delta
  done;
  let incremental = Estimator.Delta.latency delta in
  let scratch = Estimator.Delta.eval model (Estimator.Delta.placement delta) in
  check_bool "mixed chain bit-equal to scratch" true (incremental = scratch)

(* ------------------------------------------------------------ guard rails *)

let test_transaction_guards () =
  let _, _, delta = delta_of "[[5,1,3]]" in
  (match Estimator.Delta.commit delta with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "commit without transaction accepted");
  (match Estimator.Delta.undo delta with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undo without transaction accepted");
  ignore (Estimator.Delta.apply_swap delta 0 1);
  (match Estimator.Delta.apply_swap delta 2 3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nested transaction accepted");
  (match Estimator.Delta.resync delta with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "resync inside transaction accepted");
  Estimator.Delta.undo delta;
  (* moving onto an occupied trap must be rejected *)
  match Estimator.Delta.apply_move delta 0 (Estimator.Delta.trap_of delta 1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "move onto occupied trap accepted"

let test_commit_after_cutoff () =
  let _, nq, delta = delta_of "[[9,1,3]]" in
  let before = Estimator.Delta.latency delta in
  let snap = Estimator.Delta.placement delta in
  (* the first swap a greedy cut-off aborts *)
  let rec find i j =
    if i >= nq then Alcotest.fail "no swap was cut off on [[9,1,3]]"
    else if j >= nq then find (i + 1) (i + 2)
    else
      let d = Estimator.Delta.apply_swap ~cutoff:(fun () -> 0.0) delta i j in
      if d = infinity then ()
      else begin
        Estimator.Delta.undo delta;
        find i (j + 1)
      end
  in
  find 0 1;
  (match Estimator.Delta.commit delta with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "commit after a cut-off accepted");
  check_bool "still in transaction" true (Estimator.Delta.in_transaction delta);
  Estimator.Delta.undo delta;
  check_bool "undo closes it" false (Estimator.Delta.in_transaction delta);
  check_bool "latency restored" true (Estimator.Delta.latency delta = before);
  check_bool "placement restored" true (Estimator.Delta.placement delta = snap);
  check_bool "zero drift" true (Estimator.Delta.resync delta = 0.0)

(* --------------------------------------------------------------- cut-off *)

(* The same random move applied twice from the same state — once with a
   cutoff, undone, then without — must agree: the cutoff is called at most
   once and only for an uphill move, a result other than [infinity] is the
   full delta bit for bit, and [infinity] means the full delta exceeds the
   [dmax] the cutoff returned.  The state walks by committing some full
   moves, so later cases start from annealed-looking placements. *)
let prop_cutoff_sound ~aborts ~fired =
  let states = lazy (Array.of_list (List.map (fun name -> (name, delta_of name)) table1)) in
  QCheck.Test.make ~name:"cut-off is exact and sound" ~count:600
    QCheck.(triple (int_bound 5) (int_bound 4) (int_bound 1_000_000))
    (fun (ci, kind, seed) ->
      let name, (_, nq, delta) = (Lazy.force states).(ci) in
      let rng = Ion_util.Rng.create seed in
      let dmax =
        match kind with
        | 0 -> 0.0
        | 1 -> 1e-12
        | 2 -> Ion_util.Rng.float rng 300.0
        | 3 -> 1e6
        | _ -> infinity
      in
      let apply ?cutoff = function
        | `Swap (i, j) -> Estimator.Delta.apply_swap ?cutoff delta i j
        | `Move (q, trap) -> Estimator.Delta.apply_move ?cutoff delta q trap
      in
      let move =
        if nq >= 2 && Ion_util.Rng.bool rng then
          let i = Ion_util.Rng.int rng nq in
          `Swap (i, (i + 1 + Ion_util.Rng.int rng (nq - 1)) mod nq)
        else `Move (Ion_util.Rng.int rng nq, Ion_util.Rng.int rng (Estimator.Delta.num_traps delta))
      in
      match move with
      | `Move (_, trap) when Estimator.Delta.occupant delta trap >= 0 -> true
      | _ ->
          let lat0 = Estimator.Delta.latency delta and place0 = Estimator.Delta.placement delta in
          let calls = ref 0 in
          let cut =
            apply
              ~cutoff:(fun () ->
                incr calls;
                dmax)
              move
          in
          Estimator.Delta.undo delta;
          let restored =
            Estimator.Delta.latency delta = lat0
            && Estimator.Delta.placement delta = place0
            && Estimator.Delta.resync delta = 0.0
          in
          let full = apply move in
          if !calls > 0 then incr fired;
          if cut = infinity then incr aborts;
          let ok =
            restored && !calls <= 1
            && (!calls = 0 || full > 0.0)
            &&
            if cut = infinity then !calls = 1 && full > dmax
            else Int64.equal (Int64.bits_of_float cut) (Int64.bits_of_float full)
          in
          if not ok then
            QCheck.Test.fail_reportf "%s: cut %h, full %h, dmax %h, %d calls, restored %b" name
              cut full dmax !calls restored;
          (* walk: keep downhill and level moves and every third other one *)
          if full <= 0.0 || seed mod 3 = 0 then Estimator.Delta.commit delta
          else Estimator.Delta.undo delta;
          ok)

let test_cutoff_sound () =
  let aborts = ref 0 and fired = ref 0 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 15 |]) (prop_cutoff_sound ~aborts ~fired);
  check_bool (Printf.sprintf "cutoff fires (%d)" !fired) true (!fired > 0);
  check_bool (Printf.sprintf "moves are aborted (%d)" !aborts) true (!aborts > 0);
  check_bool
    (Printf.sprintf "not every fired move is aborted (%d of %d)" !aborts !fired)
    true (!aborts < !fired)

(* -------------------------------------------------------------- anneals *)

(* search_delta outcomes recorded before the Metropolis cut-off and the
   unboxed generator existed: (circuit, seed, moves, routed latency bits,
   accepted, engine evaluations, best estimate bits, routed placement).
   Together with the jobs-width identity of the portfolio, this pins the
   annealer's draw order and acceptance decisions bit for bit. *)
let anneal_pins =
  [
    ("[[5,1,3]]", 1, 20000, 0x4088100000000000L, 7364, 2, 0x4083c00000000000L, [| 75; 65; 64; 74; 54 |]);
    ("[[7,1,3]]", 1, 20000, 0x4087d00000000000L, 4807, 3, 0x4086e1999999999aL, [| 73; 75; 76; 74; 65; 63; 64 |]);
    ("[[9,1,3]]", 1, 20000, 0x40927c0000000000L, 4313, 3, 0x4094707ae147ae14L, [| 55; 25; 64; 45; 54; 94; 74; 44; 46 |]);
    ("[[14,8,3]]", 1, 20000, 0x40aa760000000000L, 3859, 4, 0x40b00e3d70a3d70aL, [| 25; 63; 65; 53; 55; 54; 84; 35; 44; 46; 45; 43; 56; 73 |]);
    ("[[19,1,7]]", 1, 20000, 0x40a9ca0000000000L, 3653, 3, 0x40b1796e147ae148L, [| 4; 64; 72; 43; 52; 73; 66; 42; 55; 83; 44; 53; 57; 47; 46; 62; 45; 65; 54 |]);
    ("[[23,1,7]]", 1, 20000, 0x409d300000000000L, 3262, 4, 0x40af38a3d70a3d71L, [| 75; 72; 62; 65; 74; 46; 54; 52; 56; 43; 44; 73; 64; 78; 66; 76; 25; 55; 45; 53; 42; 57; 51 |]);
    ("[[5,1,3]]", 2012, 20000, 0x4088e80000000000L, 7258, 2, 0x4083c00000000000L, [| 74; 75; 66; 64; 65 |]);
    ("[[7,1,3]]", 2012, 20000, 0x4084b00000000000L, 4510, 3, 0x4086e1999999999aL, [| 73; 76; 66; 65; 75; 63; 74 |]);
    ("[[9,1,3]]", 2012, 20000, 0x4095240000000000L, 4316, 2, 0x4094058f5c28f5c2L, [| 56; 46; 54; 45; 24; 43; 44; 76; 55 |]);
    ("[[14,8,3]]", 2012, 20000, 0x40a8ea0000000000L, 3893, 5, 0x40b00b547ae147aeL, [| 24; 75; 64; 93; 35; 53; 54; 44; 46; 45; 43; 55; 56; 63 |]);
    ("[[19,1,7]]", 2012, 20000, 0x40a9ba0000000000L, 3604, 4, 0x40b16f8a3d70a3d6L, [| 87; 44; 42; 74; 52; 43; 73; 53; 62; 5; 57; 47; 46; 56; 54; 55; 45; 75; 67 |]);
    ("[[23,1,7]]", 2012, 20000, 0x409ed40000000000L, 2971, 3, 0x40afaa8000000001L, [| 61; 62; 24; 56; 43; 53; 57; 42; 72; 63; 74; 71; 73; 33; 51; 67; 52; 54; 46; 55; 45; 44; 84 |]);
    ("[[23,1,7]]", 1, 200000, 0x409dac0000000000L, 31485, 4, 0x40af53a8f5c28f5dL, [| 74; 35; 52; 55; 53; 44; 65; 57; 43; 72; 73; 64; 36; 47; 56; 46; 42; 45; 54; 93; 63; 71; 62 |]);
  ]

let test_anneal_pins () =
  List.iter
    (fun (name, seed, moves, lat_bits, accepted, evals, est_bits, placement) ->
      let ctx = ctx_of name in
      let nq = Qasm.Program.num_qubits (Mapper.program ctx) in
      let label = Printf.sprintf "%s seed %d, %d moves" name seed moves in
      match
        Placer.Annealing.search_delta ~rng:(Ion_util.Rng.create seed) ~moves
          ~model:(Mapper.estimator_model ctx) ~evaluate:(Mapper.run_forward ctx)
          (Mapper.component ctx) ~num_qubits:nq
      with
      | Error e -> Alcotest.failf "%s: %s" label (Simulator.Engine.string_of_error e)
      | Ok o ->
          let bits = Int64.bits_of_float in
          Alcotest.(check int64) (label ^ " routed latency") lat_bits
            (bits o.Placer.Annealing.result.Simulator.Engine.latency);
          check_int (label ^ " accepted") accepted o.Placer.Annealing.accepted;
          check_int (label ^ " engine evals") evals o.Placer.Annealing.engine_evals;
          Alcotest.(check int64) (label ^ " best estimate") est_bits
            (bits o.Placer.Annealing.best_estimate);
          Alcotest.(check (array int)) (label ^ " placement") placement
            o.Placer.Annealing.placement;
          Alcotest.(check (float 0.0)) (label ^ " resync drift") 0.0 o.Placer.Annealing.max_drift)
    anneal_pins

(* -------------------------------------------------------------- portfolio *)

let test_portfolio_bit_identical_across_jobs () =
  let ctx = ctx_of "[[9,1,3]]" in
  let findings =
    Analysis.Determinism.check ~label:"portfolio" ~jobs:4 (fun ~jobs ->
        map_at ~m:3 ~sa_moves:800 ~jobs Portfolio ctx)
  in
  match findings with
  | [] -> ()
  | fs ->
      Alcotest.failf "portfolio diverges across job counts: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" Analysis.Finding.pp) fs))

(* at a small and at the 4000-move delta-SA budget *)
let test_portfolio_never_worse_than_annealing () =
  List.iter
    (fun name ->
      let ctx = ctx_of name in
      let anneal =
        match map_at ~m:3 Annealing ctx with
        | Ok s -> s
        | Error e -> Alcotest.failf "%s map Annealing: %s" name (Mapper.error_to_string e)
      in
      List.iter
        (fun sa_moves ->
          let portfolio =
            match map_at ~m:3 ~sa_moves Portfolio ctx with
            | Ok s -> s
            | Error e -> Alcotest.failf "%s map Portfolio: %s" name (Mapper.error_to_string e)
          in
          if portfolio.Mapper.latency > anneal.Mapper.latency then
            Alcotest.failf "%s, %d moves: portfolio %.1f us worse than anneal %.1f us" name sa_moves
              portfolio.Mapper.latency anneal.Mapper.latency;
          (* all five strategies stay visible in the audit *)
          check_int (name ^ " portfolio attempts") 5 (List.length portfolio.Mapper.attempts))
        [ 600; 4_000 ])
    table1

let test_portfolio_solution_contract () =
  let ctx = ctx_of "[[7,1,3]]" in
  match map_at ~m:3 ~sa_moves:500 Portfolio ctx with
  | Error e -> Alcotest.failf "map Portfolio: %s" (Mapper.error_to_string e)
  | Ok s ->
      check_bool "positive latency" true (s.Mapper.latency > 0.0);
      check_int "initial placement arity" 7 (Array.length s.Mapper.initial_placement);
      check_bool "not degraded without budget" false s.Mapper.degraded;
      List.iter
        (fun (a : Mapper.attempt) ->
          check_bool "attempt stage tagged" true
            (String.length a.Mapper.stage > 10
            && String.sub a.Mapper.stage 0 10 = "portfolio:"))
        s.Mapper.attempts

let () =
  Alcotest.run "delta"
    [
      ( "transactions",
        [
          Alcotest.test_case "undo restores state" `Quick test_undo_restores_state;
          Alcotest.test_case "delta = latency difference" `Quick test_delta_equals_latency_difference;
          Alcotest.test_case "guards" `Quick test_transaction_guards;
          Alcotest.test_case "guards: commit after a cut-off" `Quick test_commit_after_cutoff;
        ] );
      ( "chains",
        [
          Alcotest.test_case "chain matches scratch (Table 1)" `Quick test_chain_matches_scratch;
          Alcotest.test_case "mixed commit/undo chain" `Quick test_chain_with_undo_matches_scratch;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "bit-identical across jobs" `Slow test_portfolio_bit_identical_across_jobs;
          Alcotest.test_case "never worse than anneal" `Slow test_portfolio_never_worse_than_annealing;
          Alcotest.test_case "solution contract" `Quick test_portfolio_solution_contract;
        ] );
      ("cutoff", [ Alcotest.test_case "cut-off is exact and sound" `Quick test_cutoff_sound ]);
      ( "anneal",
        [ Alcotest.test_case "search_delta outcomes pinned" `Quick test_anneal_pins ] );
    ]
