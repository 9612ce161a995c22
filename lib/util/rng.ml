(* xoshiro256** state s0..s3 as four little-endian int64 words at byte
   offsets 0, 8, 16 and 24.  An int64 read from or written to a [Bytes] is
   unboxed, where a [mutable int64] record field boxes every store, so
   stepping the generator allocates nothing. *)
type t = Bytes.t

let ( +% ) = Int64.add
let ( *% ) = Int64.mul
let ( ^% ) = Int64.logxor

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64 step, used only for seeding: guarantees a well-mixed initial
   state even from small consecutive integer seeds. *)
let splitmix64 state =
  state := !state +% 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = (z ^% Int64.shift_right_logical z 30) *% 0xBF58476D1CE4E5B9L in
  let z = (z ^% Int64.shift_right_logical z 27) *% 0x94D049BB133111EBL in
  z ^% Int64.shift_right_logical z 31

let of_splitmix st =
  let t = Bytes.create 32 in
  for k = 0 to 3 do
    Bytes.set_int64_le t (8 * k) (splitmix64 st)
  done;
  t

let create seed = of_splitmix (ref (Int64.of_int seed))

(* One xoshiro256** state transition. *)
let step t =
  let s0 = Bytes.get_int64_le t 0
  and s1 = Bytes.get_int64_le t 8
  and s2 = Bytes.get_int64_le t 16
  and s3 = Bytes.get_int64_le t 24 in
  let s2 = s2 ^% s0 in
  let s3 = s3 ^% s1 in
  Bytes.set_int64_le t 0 (s0 ^% s3);
  Bytes.set_int64_le t 8 (s1 ^% s2);
  Bytes.set_int64_le t 16 (s2 ^% Int64.shift_left s1 17);
  Bytes.set_int64_le t 24 (rotl s3 45)

(* The output of a step is a function of s1 alone, so it is read before
   stepping.  Inlined into each draw, so the int64 result stays unboxed
   there; only [int64] itself returns a boxed value. *)
let[@inline] next t =
  let s1 = Bytes.get_int64_le t 8 in
  step t;
  rotl (s1 *% 5L) 7 *% 9L

let int64 = next

let derive seed ~index =
  if index < 0 then invalid_arg "Rng.derive: negative index";
  (* mix the base seed first, then perturb by the stream index scaled by the
     splitmix golden gamma, so streams for consecutive indices are as
     decorrelated as streams for unrelated seeds *)
  let st = ref (Int64.of_int seed) in
  let base = splitmix64 st in
  of_splitmix (ref (base ^% (0x9E3779B97F4A7C15L *% Int64.of_int (index + 1))))

let split t = of_splitmix (ref (int64 t))

let int t bound =
  assert (bound > 0);
  (* draw uniformly from [0, max_int], rejecting the incomplete final block
     so the modulo introduces no bias *)
  let mask = Int64.of_int max_int in
  let r = max_int mod bound in
  let accept_all = r = bound - 1 in
  let cutoff = max_int - r in
  (* a loop: a local recursive function would allocate a closure per draw *)
  let v = ref (-1) in
  while !v < 0 do
    let x = Int64.to_int (Int64.logand (next t) mask) in
    if accept_all || x < cutoff then v := x mod bound
  done;
  !v

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
