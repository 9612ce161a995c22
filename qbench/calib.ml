(* The host-speed probe: a fixed computation that shares no code with the
   mapper and allocates nothing, so neither a change to the program nor its
   GC settings can move it — only the host's speed.  Half of it is shortest
   paths on a seeded grid graph with an array binary heap, the branchy
   shape of work the router does; half is a tight arithmetic loop over a
   small array, the shape of the delta annealer's inner loop.  Host speed
   changes move the two by different factors. *)

let side = 48
let nodes = side * side
let dist = Array.make nodes 0
let heap_key = Array.make (4 * nodes) 0
let heap_node = Array.make (4 * nodes) 0

(* edge weight 1..8 from [v] in direction [d], a pure function of both *)
let weight v d = 1 + ((((v * 7919) + (d * 104729)) lxor (v lsr 3)) land 7)

let dijkstra src =
  Array.fill dist 0 nodes max_int;
  let size = ref 0 in
  let swap i j =
    let k = heap_key.(i) and n = heap_node.(i) in
    heap_key.(i) <- heap_key.(j);
    heap_node.(i) <- heap_node.(j);
    heap_key.(j) <- k;
    heap_node.(j) <- n
  in
  let push k n =
    heap_key.(!size) <- k;
    heap_node.(!size) <- n;
    incr size;
    let i = ref (!size - 1) in
    while !i > 0 && heap_key.((!i - 1) / 2) > heap_key.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    decr size;
    swap 0 !size;
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = if l < !size && heap_key.(l) < heap_key.(!i) then l else !i in
      let m = if r < !size && heap_key.(r) < heap_key.(m) then r else m in
      if m = !i then sifting := false
      else begin
        swap !i m;
        i := m
      end
    done
  in
  let relax d v u dir =
    let nd = d + weight v dir in
    if nd < dist.(u) then begin
      dist.(u) <- nd;
      push nd u
    end
  in
  dist.(src) <- 0;
  push 0 src;
  while !size > 0 do
    pop ();
    let d = heap_key.(!size) and v = heap_node.(!size) in
    if d = dist.(v) then begin
      let x = v mod side and y = v / side in
      if x + 1 < side then relax d v (v + 1) 0;
      if x > 0 then relax d v (v - 1) 1;
      if y + 1 < side then relax d v (v + side) 2;
      if y > 0 then relax d v (v - side) 3
    end
  done

let mix = Array.make 16_384 1

let spin () =
  let s = ref 0 in
  for r = 1 to 48 do
    for i = 0 to Array.length mix - 1 do
      s := !s + (mix.(i) * r);
      mix.(i) <- ((mix.(i) * 31) + r) land 1023
    done
  done;
  !s

(* Seconds for one fixed batch of searches and loops. *)
let sample () =
  let t0 = Ion_util.Clock.now_s () in
  let acc = ref (spin ()) in
  for s = 0 to 7 do
    dijkstra (s * 283 mod nodes);
    acc := !acc + dist.(nodes - 1 - s)
  done;
  ignore (Sys.opaque_identity !acc);
  Ion_util.Clock.now_s () -. t0
