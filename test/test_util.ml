(* Tests for the ion_util substrate: RNG determinism and uniformity bounds,
   priority-queue ordering, statistics, bit-vector algebra and coordinate
   geometry. *)

open Ion_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.int64 a) (Rng.int64 b)) then differs := true
  done;
  check_bool "different seeds differ" true !differs

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 13 in
    check_bool "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_uniformish () =
  let r = Rng.create 11 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int r 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      (* each bucket should get ~10000; allow 10% slack *)
      check_bool "bucket within 10%" true (c > 9_000 && c < 11_000))
    counts

let test_rng_float_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 2.5 in
    check_bool "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.int64 parent) (Rng.int64 child)) then differs := true
  done;
  check_bool "split stream differs" true !differs

let test_rng_permutation () =
  let r = Rng.create 9 in
  let p = Rng.permutation r 50 in
  let seen = Array.make 50 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  Array.iter (fun b -> check_bool "all present" true b) seen

let test_rng_shuffle_preserves_elements () =
  let r = Rng.create 13 in
  let a = Array.init 20 (fun i -> i * i) in
  let b = Array.copy a in
  Rng.shuffle r b;
  Array.sort compare b;
  Alcotest.(check (array int)) "same multiset" a b

let test_rng_pick_member () =
  let r = Rng.create 17 in
  let a = [| 3; 1; 4; 1; 5 |] in
  for _ = 1 to 100 do
    check_bool "member" true (Array.exists (( = ) (Rng.pick r a)) a)
  done

(* Known answers: the streams below were recorded from the original
   int64-record implementation, so any change of state representation must
   reproduce every generator output bit for bit — seeding, derivation,
   splitting and the three derived draws. *)
let test_rng_known_answers () =
  let check_stream label r expected =
    List.iteri
      (fun k want -> Alcotest.(check int64) (Printf.sprintf "%s #%d" label k) want (Rng.int64 r))
      expected
  in
  check_stream "create 42" (Rng.create 42)
    [
      0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L; 0xecb8ad4703b360a1L;
      0xfde6dc7fe2ec5e64L; 0xc50da53101795238L; 0xb82154855a65ddb2L; 0xd99a2743ebe60087L;
    ];
  check_stream "derive 7919 ~index:0" (Rng.derive 7919 ~index:0)
    [
      0xc5c79c1229920f9eL; 0x361d22d5c09f1f6bL; 0x974ff72ad2908ee2L; 0x7bdad61b818ee746L;
      0xbd4bfa561ebb86afL; 0x4fcda94bfcce39c3L; 0x5457dfb1f2d77fcdL; 0x4bdedcaa170f0b47L;
    ];
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  check_stream "split (create 5)" child
    [
      0x091202d77b981e85L; 0xabed1bc85f216b95L; 0xb2d17cb1bedace98L; 0x4f20ed31b795bd9cL;
      0xf5678220f3b264beL; 0x16155b4dafb88b78L; 0xe640ff868ebf1b38L; 0xc3d2562d52bff7acL;
    ];
  check_stream "create 5 after split" parent
    [
      0x9a22115a4d2624dcL; 0xa648b1ccf0bbbbaeL; 0xd2511e20de933bc5L; 0x84475cf19f18e249L;
      0xc8d68fcc4867a987L; 0x80feec1a8a64aa3fL; 0xcf04724063e77988L; 0x5ccf3d5b1ce60ff9L;
    ];
  (* one generator, drawn in sequence: 16 ints, then 16 floats, then 16 bools *)
  let r = Rng.create 42 in
  Alcotest.(check (list int))
    "int r 13"
    [ 2; 2; 9; 1; 3; 7; 9; 1; 11; 3; 2; 8; 0; 0; 5; 3 ]
    (List.init 16 (fun _ -> Rng.int r 13));
  Alcotest.(check (list int64))
    "float r 2.5 (bits)"
    [
      0x3ff8aba360d22884L; 0x4001071e02a27465L; 0x3ffc4d36e29d127cL; 0x3ffc502bfdba54e3L;
      0x3fcdb718a8852a7eL; 0x3fdca4c638ab47a7L; 0x3ff172a68ba73eceL; 0x3ff814a15d2dd43aL;
      0x3fe91e7e1c4500e6L; 0x3ff39152d620cb58L; 0x3fefeb5a12cc62b8L; 0x3fff909bc803660aL;
      0x3ff966fb2c646158L; 0x3fe281bb35360272L; 0x3ff0922254336f11L; 0x3ff8e8c4c8fa1486L;
    ]
    (List.init 16 (fun _ -> Int64.bits_of_float (Rng.float r 2.5)));
  Alcotest.(check (list bool))
    "bool r"
    [
      false; false; false; false; true; true; false; true;
      true; true; true; false; true; true; false; true;
    ]
    (List.init 16 (fun _ -> Rng.bool r))

(* ---------------------------------------------------------------- Fheap *)

(* Fheap, the repo's priority queue: float priorities, int payloads. *)

(* pops every entry, returning (priority, payload) pairs in pop order *)
let drain q =
  let rec go acc =
    if Fheap.is_empty q then List.rev acc
    else begin
      let p = Fheap.top_prio q and d = Fheap.top_data q in
      Fheap.drop_min q;
      go ((p, d) :: acc)
    end
  in
  go []

let heap_of xs =
  let q = Fheap.create () in
  List.iter (fun x -> Fheap.add q (float_of_int x) x) xs;
  q

let test_pqueue_ordering () =
  let q = heap_of [ 5; 3; 8; 1; 9; 2; 7 ] in
  check_int "length" 7 (Fheap.length q);
  Alcotest.(check (list int)) "ascending pops" [ 1; 2; 3; 5; 7; 8; 9 ] (List.map snd (drain q));
  check_bool "drained" true (Fheap.is_empty q)

let test_pqueue_pop_sequence () =
  let q = Fheap.create () in
  Fheap.add q 2.0 20;
  Fheap.add q 1.0 10;
  Fheap.add q 3.0 30;
  check_float "top prio" 1.0 (Fheap.top_prio q);
  check_int "top data" 10 (Fheap.top_data q);
  Fheap.drop_min q;
  check_int "second" 20 (Fheap.top_data q);
  Fheap.drop_min q;
  check_int "third" 30 (Fheap.top_data q);
  Fheap.drop_min q;
  check_bool "empty" true (Fheap.is_empty q)

let test_pqueue_empty () =
  let q = Fheap.create () in
  check_bool "is_empty" true (Fheap.is_empty q);
  check_int "length" 0 (Fheap.length q);
  Alcotest.check_raises "top_prio raises" (Invalid_argument "Fheap.top_prio: empty heap") (fun () ->
      ignore (Fheap.top_prio q));
  Alcotest.check_raises "top_data raises" (Invalid_argument "Fheap.top_data: empty heap") (fun () ->
      ignore (Fheap.top_data q));
  Alcotest.check_raises "drop_min raises" (Invalid_argument "Fheap.drop_min: empty heap") (fun () ->
      Fheap.drop_min q)

let test_pqueue_clear () =
  let q = heap_of [ 1; 2 ] in
  let prio = q.Fheap.prio and data = q.Fheap.data in
  Fheap.clear q;
  check_bool "cleared" true (Fheap.is_empty q);
  check_bool "arrays kept" true (q.Fheap.prio == prio && q.Fheap.data == data);
  List.iter (fun x -> Fheap.add q (float_of_int x) x) [ 9; 4; 6 ];
  Alcotest.(check (list int)) "reusable" [ 4; 6; 9 ] (List.map snd (drain q))

let test_pqueue_growth () =
  let q = Fheap.create ~capacity:1 () in
  for i = 1000 downto 1 do
    Fheap.add q (float_of_int i) i
  done;
  check_int "length" 1000 (Fheap.length q);
  check_int "min after growth" 1 (Fheap.top_data q);
  Alcotest.(check (list int)) "ascending" (List.init 1000 succ) (List.map snd (drain q))

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains any list sorted" ~count:200
    QCheck.(list small_int)
    (fun xs -> List.map snd (drain (heap_of xs)) = List.sort compare xs)

(* the allocation-free push recipe documented in fheap.mli must build the
   same heap as [add], ties included *)
let prop_manual_push_equals_add =
  QCheck.Test.make ~name:"manual push recipe drains the same as add" ~count:200
    QCheck.(list (int_bound 20))
    (fun xs ->
      let a = Fheap.create ~capacity:1 () and m = Fheap.create ~capacity:1 () in
      List.iteri
        (fun v x ->
          let p = float_of_int x in
          Fheap.add a p v;
          Fheap.ensure_room m;
          m.Fheap.prio.(m.Fheap.size) <- p;
          m.Fheap.data.(m.Fheap.size) <- v;
          m.Fheap.size <- m.Fheap.size + 1;
          Fheap.sift_up m (m.Fheap.size - 1))
        xs;
      drain a = drain m)

(* A copy of the swap-based binary heap Fheap used before its sifts moved
   a hole, kept as the reference for the layout and pop order. *)
module Swap_heap = struct
  type t = { mutable prio : float array; mutable data : int array; mutable size : int }

  let create () = { prio = Array.make 1 0.0; data = Array.make 1 0; size = 0 }

  let swap t i j =
    let p = t.prio.(i) and d = t.data.(i) in
    t.prio.(i) <- t.prio.(j);
    t.data.(i) <- t.data.(j);
    t.prio.(j) <- p;
    t.data.(j) <- d

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if t.prio.(i) < t.prio.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && t.prio.(l) < t.prio.(!smallest) then smallest := l;
    if r < t.size && t.prio.(r) < t.prio.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let add t p v =
    if t.size = Array.length t.prio then begin
      t.prio <- Array.append t.prio (Array.make t.size 0.0);
      t.data <- Array.append t.data (Array.make t.size 0)
    end;
    t.prio.(t.size) <- p;
    t.data.(t.size) <- v;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let pop t =
    let top = (t.prio.(0), t.data.(0)) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.prio.(0) <- t.prio.(t.size);
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    top
end

(* ops: 0 pops (when non-empty), 1..3 pushes that priority with the op's
   index as payload — three priorities, so most comparisons are ties *)
let prop_hole_sifts_equal_swaps =
  QCheck.Test.make ~name:"hole sifts pop and lay out the same as swap sifts" ~count:500
    QCheck.(list (int_bound 3))
    (fun ops ->
      let q = Fheap.create ~capacity:1 () and s = Swap_heap.create () in
      let pop () =
        let p = Fheap.top_prio q and d = Fheap.top_data q in
        Fheap.drop_min q;
        ((p, d), Swap_heap.pop s)
      in
      let pops =
        List.concat
          (List.mapi
             (fun v op ->
               if op > 0 then begin
                 Fheap.add q (float_of_int op) v;
                 Swap_heap.add s (float_of_int op) v;
                 []
               end
               else if Fheap.is_empty q then []
               else [ pop () ])
             ops)
      in
      let same_layout =
        Fheap.length q = s.Swap_heap.size
        && Array.sub q.Fheap.prio 0 s.size = Array.sub s.prio 0 s.size
        && Array.sub q.Fheap.data 0 s.size = Array.sub s.data 0 s.size
      in
      let rest = List.init (Fheap.length q) (fun _ -> pop ()) in
      same_layout && List.for_all (fun (a, b) -> a = b) (pops @ rest))

(* ---------------------------------------------------------------- Stats *)

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "mean empty" 0.0 (Stats.mean [])

let test_stats_variance () =
  check_float "variance" 1.25 (Stats.variance [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "variance singleton" 0.0 (Stats.variance [ 7.0 ])

let test_stats_minmax_median () =
  let lo, hi = Stats.min_max [ 3.0; 1.0; 2.0 ] in
  check_float "min" 1.0 lo;
  check_float "max" 3.0 hi;
  check_float "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ])

let test_stats_percentile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  check_float "p0" 10.0 (Stats.percentile 0.0 xs);
  check_float "p100" 40.0 (Stats.percentile 100.0 xs);
  check_float "p50" 25.0 (Stats.percentile 50.0 xs)

let test_stats_geomean () =
  check_float "geometric mean" 4.0 (Stats.geometric_mean [ 2.0; 8.0 ])

let test_stats_errors () =
  Alcotest.check_raises "min_max empty" (Invalid_argument "Stats.min_max: empty list") (fun () ->
      ignore (Stats.min_max []));
  Alcotest.check_raises "percentile empty" (Invalid_argument "Stats.percentile: empty list") (fun () ->
      ignore (Stats.percentile 50.0 []))

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean lies within min..max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let m = Stats.mean xs in
      let lo, hi = Stats.min_max xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

(* ---------------------------------------------------------------- Coord *)

let test_coord_manhattan () =
  let a = Coord.make 0 0 and b = Coord.make 3 4 in
  check_int "manhattan" 7 (Coord.manhattan a b);
  check_int "symmetric" (Coord.manhattan a b) (Coord.manhattan b a)

let test_coord_midpoint () =
  let m = Coord.midpoint (Coord.make 0 0) (Coord.make 4 6) in
  check_bool "midpoint" true (Coord.equal m (Coord.make 2 3))

let test_coord_dirs () =
  let c = Coord.make 5 5 in
  List.iter
    (fun d ->
      let c' = Coord.step c d in
      check_int "unit step" 1 (Coord.manhattan c c');
      match Coord.dir_between c c' with
      | Some d' -> check_bool "dir_between recovers dir" true (d = d')
      | None -> Alcotest.fail "dir_between returned None for a unit step")
    Coord.all_dirs

let test_coord_opposite () =
  List.iter
    (fun d ->
      let c = Coord.make 0 0 in
      let back = Coord.step (Coord.step c d) (Coord.opposite d) in
      check_bool "opposite returns" true (Coord.equal c back))
    Coord.all_dirs

let test_coord_dir_between_far () =
  Alcotest.(check bool)
    "non-adjacent cells have no dir" true
    (Coord.dir_between (Coord.make 0 0) (Coord.make 2 0) = None)

let test_coord_containers () =
  let s = Coord.Set.of_list [ Coord.make 1 1; Coord.make 1 1; Coord.make 2 2 ] in
  check_int "set dedup" 2 (Coord.Set.cardinal s);
  let tbl = Coord.Tbl.create 4 in
  Coord.Tbl.replace tbl (Coord.make 3 3) "x";
  check_bool "tbl find" true (Coord.Tbl.mem tbl (Coord.make 3 3))

(* ----------------------------------------------------------------- Bitv *)

let test_bitv_get_set () =
  let v = Bitv.create 100 in
  check_bool "initially clear" false (Bitv.get v 57);
  Bitv.set v 57 true;
  check_bool "set" true (Bitv.get v 57);
  Bitv.set v 57 false;
  check_bool "cleared" false (Bitv.get v 57)

let test_bitv_flip () =
  let v = Bitv.create 8 in
  Bitv.flip v 3;
  check_bool "flipped on" true (Bitv.get v 3);
  Bitv.flip v 3;
  check_bool "flipped off" false (Bitv.get v 3)

let test_bitv_xor () =
  let a = Bitv.create 16 and b = Bitv.create 16 in
  Bitv.set a 1 true;
  Bitv.set a 2 true;
  Bitv.set b 2 true;
  Bitv.set b 3 true;
  Bitv.xor_into ~dst:a ~src:b;
  check_bool "1" true (Bitv.get a 1);
  check_bool "2" false (Bitv.get a 2);
  check_bool "3" true (Bitv.get a 3);
  check_int "popcount" 2 (Bitv.popcount a)

let test_bitv_fill () =
  let v = Bitv.create 13 in
  Bitv.fill v true;
  check_int "popcount respects slack bits" 13 (Bitv.popcount v);
  Bitv.fill v false;
  check_int "popcount zero" 0 (Bitv.popcount v)

let test_bitv_iter_set () =
  let v = Bitv.create 64 in
  List.iter (fun i -> Bitv.set v i true) [ 0; 13; 63 ];
  let acc = ref [] in
  Bitv.iter_set v (fun i -> acc := i :: !acc);
  Alcotest.(check (list int)) "iter_set ascending" [ 0; 13; 63 ] (List.rev !acc)

let test_bitv_and_popcount () =
  let a = Bitv.create 32 and b = Bitv.create 32 in
  List.iter (fun i -> Bitv.set a i true) [ 1; 5; 9 ];
  List.iter (fun i -> Bitv.set b i true) [ 5; 9; 11 ];
  check_int "and_popcount" 2 (Bitv.and_popcount a b)

let test_bitv_bounds () =
  let v = Bitv.create 10 in
  Alcotest.check_raises "oob get" (Invalid_argument "Bitv: index out of bounds") (fun () ->
      ignore (Bitv.get v 10))

let prop_bitv_xor_involution =
  QCheck.Test.make ~name:"xor twice restores" ~count:200
    QCheck.(pair (list_of_size Gen.(0 -- 60) (int_bound 63)) (list_of_size Gen.(0 -- 60) (int_bound 63)))
    (fun (xs, ys) ->
      let a = Bitv.create 64 and b = Bitv.create 64 in
      List.iter (fun i -> Bitv.set a i true) xs;
      List.iter (fun i -> Bitv.set b i true) ys;
      let original = Bitv.copy a in
      Bitv.xor_into ~dst:a ~src:b;
      Bitv.xor_into ~dst:a ~src:b;
      Bitv.equal a original)

(* ----------------------------------------------------------- Ascii_table *)

let test_table_render () =
  let s = Ascii_table.render ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "10"; "20" ] ] in
  check_bool "contains header" true (String.length s > 0);
  (* each data cell must appear in the output *)
  List.iter
    (fun cell ->
      let found = ref false in
      for i = 0 to String.length s - String.length cell do
        if String.sub s i (String.length cell) = cell then found := true
      done;
      check_bool ("cell " ^ cell) true !found)
    [ "10"; "20" ]

let test_table_row_padding () =
  (* shorter rows padded, longer rows truncated: must not raise *)
  let s = Ascii_table.render ~header:[ "x"; "y" ] ~rows:[ [ "1" ]; [ "1"; "2"; "3" ] ] in
  check_bool "rendered" true (String.length s > 0)

let test_table_empty_columns () =
  Alcotest.check_raises "no columns" (Invalid_argument "Ascii_table.render: no columns") (fun () ->
      ignore (Ascii_table.render ~header:[] ~rows:[]))

(* ----------------------------------------------------------------- Plot *)

let test_plot_renders_series () =
  let s =
    Plot.render
      [
        { Plot.label = "a"; points = [ (0.0, 0.0); (1.0, 1.0); (2.0, 4.0) ]; glyph = 'a' };
        { Plot.label = "b"; points = [ (0.0, 4.0); (2.0, 0.0) ]; glyph = 'b' };
      ]
  in
  check_bool "has glyph a" true (String.contains s 'a');
  check_bool "has glyph b" true (String.contains s 'b');
  check_bool "has legend" true (String.length s > 100)

let test_plot_guards () =
  (match Plot.render [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty accepted");
  (match Plot.render [ { Plot.label = "x"; points = []; glyph = 'x' } ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "no points accepted");
  match Plot.render ~width:3 ~height:2 [ { Plot.label = "x"; points = [ (0.0, 0.0) ]; glyph = 'x' } ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tiny grid accepted"

let test_plot_single_point () =
  (* degenerate ranges must not divide by zero *)
  let s = Plot.render [ { Plot.label = "p"; points = [ (5.0, 7.0) ]; glyph = 'p' } ] in
  check_bool "renders" true (String.contains s 'p')

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "ion_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniform-ish" `Quick test_rng_int_uniformish;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "permutation complete" `Quick test_rng_permutation;
          Alcotest.test_case "shuffle preserves" `Quick test_rng_shuffle_preserves_elements;
          Alcotest.test_case "pick member" `Quick test_rng_pick_member;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "pop sequence" `Quick test_pqueue_pop_sequence;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          Alcotest.test_case "growth" `Quick test_pqueue_growth;
        ]
        @ qsuite [ prop_pqueue_sorts; prop_manual_push_equals_add; prop_hole_sifts_equal_swaps ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "min max median" `Quick test_stats_minmax_median;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "geometric mean" `Quick test_stats_geomean;
          Alcotest.test_case "errors" `Quick test_stats_errors;
        ]
        @ qsuite [ prop_mean_bounded ] );
      ( "coord",
        [
          Alcotest.test_case "manhattan" `Quick test_coord_manhattan;
          Alcotest.test_case "midpoint" `Quick test_coord_midpoint;
          Alcotest.test_case "directions" `Quick test_coord_dirs;
          Alcotest.test_case "opposite" `Quick test_coord_opposite;
          Alcotest.test_case "dir_between far" `Quick test_coord_dir_between_far;
          Alcotest.test_case "containers" `Quick test_coord_containers;
        ] );
      ( "bitv",
        [
          Alcotest.test_case "get/set" `Quick test_bitv_get_set;
          Alcotest.test_case "flip" `Quick test_bitv_flip;
          Alcotest.test_case "xor" `Quick test_bitv_xor;
          Alcotest.test_case "fill slack" `Quick test_bitv_fill;
          Alcotest.test_case "iter_set" `Quick test_bitv_iter_set;
          Alcotest.test_case "and_popcount" `Quick test_bitv_and_popcount;
          Alcotest.test_case "bounds" `Quick test_bitv_bounds;
        ]
        @ qsuite [ prop_bitv_xor_involution ] );
      ( "plot",
        [
          Alcotest.test_case "series" `Quick test_plot_renders_series;
          Alcotest.test_case "guards" `Quick test_plot_guards;
          Alcotest.test_case "single point" `Quick test_plot_single_point;
        ] );
      ( "ascii_table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row padding" `Quick test_table_row_padding;
          Alcotest.test_case "empty columns" `Quick test_table_empty_columns;
        ] );
    ]
