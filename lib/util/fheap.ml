type t = {
  mutable prio : float array;
  mutable data : int array;
  mutable size : int;
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { prio = Array.make capacity 0.0; data = Array.make capacity 0; size = 0 }

let length t = t.size
let is_empty t = t.size = 0
let clear t = t.size <- 0

let ensure_room t =
  if t.size = Array.length t.prio then begin
    let prio = Array.make (2 * t.size) 0.0 in
    let data = Array.make (2 * t.size) 0 in
    Array.blit t.prio 0 prio 0 t.size;
    Array.blit t.data 0 data 0 t.size;
    t.prio <- prio;
    t.data <- data
  end

(* Both sifts move a hole: the sifting entry is held in locals and
   written once, where it lands, instead of being swapped level by level.
   The comparisons are a swap-based sift's, in the same order, so the
   layout (and with it the pop order, ties included) is the same.  Slots
   read unchecked are below [size] (and [sift_up]'s start slot is read
   checked), so they are within the arrays. *)
let sift_up t i =
  let prio = t.prio and data = t.data in
  let p = prio.(i) and d = data.(i) in
  let hole = ref i and rising = ref true in
  while !rising && !hole > 0 do
    let i = !hole in
    let parent = (i - 1) / 2 in
    if p < Array.unsafe_get prio parent then begin
      Array.unsafe_set prio i (Array.unsafe_get prio parent);
      Array.unsafe_set data i (Array.unsafe_get data parent);
      hole := parent
    end
    else rising := false
  done;
  Array.unsafe_set prio !hole p;
  Array.unsafe_set data !hole d

let sift_down t i =
  let prio = t.prio and data = t.data and size = t.size in
  let p = prio.(i) and d = data.(i) in
  let hole = ref i and sinking = ref true in
  while !sinking do
    let i = !hole in
    let l = (2 * i) + 1 in
    let r = l + 1 in
    let smallest = if l < size && Array.unsafe_get prio l < p then l else i in
    let smallest =
      if r < size && Array.unsafe_get prio r < (if smallest = i then p else Array.unsafe_get prio smallest)
      then r
      else smallest
    in
    if smallest = i then sinking := false
    else begin
      Array.unsafe_set prio i (Array.unsafe_get prio smallest);
      Array.unsafe_set data i (Array.unsafe_get data smallest);
      hole := smallest
    end
  done;
  Array.unsafe_set prio !hole p;
  Array.unsafe_set data !hole d

let add t p v =
  ensure_room t;
  t.prio.(t.size) <- p;
  t.data.(t.size) <- v;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let top_prio t =
  if t.size = 0 then invalid_arg "Fheap.top_prio: empty heap";
  t.prio.(0)

let top_data t =
  if t.size = 0 then invalid_arg "Fheap.top_data: empty heap";
  t.data.(0)

let drop_min t =
  if t.size = 0 then invalid_arg "Fheap.drop_min: empty heap";
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.prio.(0) <- t.prio.(t.size);
    t.data.(0) <- t.data.(t.size);
    sift_down t 0
  end
