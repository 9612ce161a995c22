module F = Finding
module Coord = Ion_util.Coord
module Json = Ion_util.Json
module Micro = Router.Micro

let pass = "certify"
let eps = 1e-9
let max_reported = 40

type certificate = {
  valid : bool;
  claimed_latency : float;
  replayed_makespan : float;
  commands : int;
  moves : int;
  turns : int;
  gates : int;
  digest : int64;
  lower_bound : float option;
  bound_kind : Estimator.Bound.kind option;
  findings : F.t list;
}

let optimality_gap c =
  Option.bind c.lower_bound (fun bound -> Estimator.Bound.gap ~latency:c.claimed_latency ~bound)

(* Canonical rendering for the digest, one line per command:

     M<q> <x>,<y>><x>,<y> <start> <finish>
     T<q> <x>,<y> <start> <finish>
     G+<id> <x>,<y> [<q>,<q>,...] <time>     (G- for a gate end)

   ints in decimal, floats in OCaml's exact [%h] hex notation, so two traces
   digest equal iff they are bit-identical schedules.  The bytes are
   rendered straight into one 512-byte chunk, folded into FNV-1a 64
   whenever the next command might not fit — nothing is rendered with
   [Printf], no call is made per byte and no trace-sized string is built.
   The certifier sits past the flat->variant decode boundary: the engine
   builds traces in packed arenas (doc/memory.md), but what reaches this
   pass is the materialized [Micro.command list], so digests are a pure
   function of the commands and can never observe the packed
   representation. *)
type digest_state = {
  chunk : Bytes.t;
  mutable len : int;
  mutable hash : int64;
  (* recently rendered floats, direct-mapped on their integer part: a
     trace's times repeat (a move's finish is the next move's start) *)
  seen : float array;
  seen_text : Bytes.t;  (* slot [i]'s rendering at [float_w * i] *)
  seen_len : Bytes.t;
}

let fnv_prime = 0x100000001b3L

(* The accumulator is a local: a captured [int64 ref] would box per byte. *)
let fnv_bytes h b len =
  let h = ref h in
  for i = 0 to len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)))) fnv_prime
  done;
  !h

let flush st =
  st.hash <- fnv_bytes st.hash st.chunk st.len;
  st.len <- 0

(* Widest renderings: an int is at most 20 bytes ([min_int]), a [%h] float
   at most 24 ([-0x1.<13 nibbles>p-1022]).  Each command reserves room for
   its widest fixed part before writing, so the writers below store
   unchecked — sometimes a few bytes past their text, inside the
   reservation — and return the position after their text. *)
let int_w = 20
let float_w = 24
let coord_w = (2 * int_w) + 1
let move_w = 1 + int_w + 1 + coord_w + 1 + coord_w + 1 + float_w + 1 + float_w + 1
let turn_w = 1 + int_w + 1 + coord_w + 1 + float_w + 1 + float_w + 1
let gate_head_w = 2 + int_w + 1 + coord_w + 2
let gate_tail_w = 2 + float_w + 1
let seen_slots = 64

let reserve st n = if st.len + n > Bytes.length st.chunk then flush st
let set = Bytes.unsafe_set

external get32 : string -> int -> int32 = "%caml_string_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let digit_char d = Char.unsafe_chr (d + if d < 10 then 48 else 87)

(* [0 .. 999] in decimal, four bytes apart, left-aligned *)
let small_ints =
  let b = Bytes.make 4000 ' ' in
  for n = 0 to 999 do
    let s = string_of_int n in
    Bytes.blit_string s 0 b (4 * n) (String.length s)
  done;
  Bytes.to_string b

(* decimal, like [%d]: the digits of [-|n|], so [min_int] needs no negation *)
let put_any_int b p n =
  let p = if n < 0 then (set b p '-'; p + 1) else p in
  let m = if n < 0 then n else -n in
  let width = ref 1 and t = ref m in
  while !t <= -10 do
    incr width;
    t := !t / 10
  done;
  let t = ref m in
  for i = p + !width - 1 downto p do
    set b i (Char.unsafe_chr (48 - (!t mod 10)));
    t := !t / 10
  done;
  p + !width

let[@inline] put_int b p n =
  if n >= 0 && n < 1000 then begin
    set32 b p (get32 small_ints (4 * n));
    p + 1 + Bool.to_int (n >= 10) + Bool.to_int (n >= 100)
  end
  else put_any_int b p n

let put_string b p s =
  Bytes.blit_string s 0 b p (String.length s);
  p + String.length s

let frac_mask = (1 lsl 52) - 1

(* [%h]: [-]0x<lead>[.<nibbles>]p<sign><exp>, trailing zero nibbles dropped;
   zero and subnormals lead with 0 (subnormals at p-1022); specials print as
   [infinity] / [nan], signed like any other value. *)
let put_hex_float b p x =
  let bits = Int64.bits_of_float x in
  let top = Int64.to_int (Int64.shift_right_logical bits 52) in
  let exp = top land 0x7ff in
  let frac = Int64.to_int bits land frac_mask in
  let p = if top land 0x800 <> 0 then (set b p '-'; p + 1) else p in
  if exp = 0x7ff then put_string b p (if frac = 0 then "infinity" else "nan")
  else begin
    set b p '0';
    set b (p + 1) 'x';
    set b (p + 2) (if exp = 0 then '0' else '1');
    let p = ref (p + 3) in
    if frac <> 0 then begin
      set b !p '.';
      incr p;
      let m = ref frac in
      while !m <> 0 do
        set b !p (digit_char (!m lsr 48));
        incr p;
        m := (!m lsl 4) land frac_mask
      done
    end;
    let e = if exp <> 0 then exp - 1023 else if frac = 0 then 0 else -1022 in
    set b !p 'p';
    incr p;
    if e >= 0 then begin
      set b !p '+';
      incr p
    end;
    put_int b !p e
  end

let[@inline] copy24 src o dst p =
  set64 dst p (get64 src o);
  set64 dst (p + 8) (get64 src (o + 8));
  set64 dst (p + 16) (get64 src (o + 16))

let put_new_float st p slot x =
  let q = put_hex_float st.chunk p x in
  st.seen.(slot) <- x;
  copy24 st.chunk p st.seen_text (slot * float_w);
  set st.seen_len slot (Char.unsafe_chr (q - p));
  q

(* Equal non-zero floats have equal bits, so a hit renders identically;
   zeros (signed) and NaNs never hit. *)
let[@inline] put_float st p x =
  let slot = Float.to_int x land (seen_slots - 1) in
  if x = st.seen.(slot) && x <> 0.0 then begin
    copy24 st.seen_text (slot * float_w) st.chunk p;
    p + Char.code (Bytes.unsafe_get st.seen_len slot)
  end
  else put_new_float st p slot x

let[@inline] put_coord b p (c : Coord.t) =
  let p = put_int b p c.Coord.x in
  set b p ',';
  put_int b (p + 1) c.Coord.y

let rec put_qubits st = function
  | [] -> ()
  | q :: tl ->
      reserve st (1 + int_w);
      st.len <- put_int st.chunk st.len q;
      (match tl with
      | [] -> ()
      | _ :: _ ->
          set st.chunk st.len ',';
          st.len <- st.len + 1);
      put_qubits st tl

let put_gate st sign instr_id trap qubits time =
  reserve st gate_head_w;
  let b = st.chunk in
  set b st.len 'G';
  set b (st.len + 1) sign;
  let p = put_int b (st.len + 2) instr_id in
  set b p ' ';
  let p = put_coord b (p + 1) trap in
  set b p ' ';
  set b (p + 1) '[';
  st.len <- p + 2;
  put_qubits st qubits;
  reserve st gate_tail_w;
  set b st.len ']';
  set b (st.len + 1) ' ';
  let p = put_float st (st.len + 2) time in
  set b p '\n';
  st.len <- p + 1

let put_command st = function
  | Micro.Move { qubit; from_; to_; start; finish } ->
      reserve st move_w;
      let b = st.chunk in
      set b st.len 'M';
      let p = put_int b (st.len + 1) qubit in
      set b p ' ';
      let p = put_coord b (p + 1) from_ in
      set b p '>';
      let p = put_coord b (p + 1) to_ in
      set b p ' ';
      let p = put_float st (p + 1) start in
      set b p ' ';
      let p = put_float st (p + 1) finish in
      set b p '\n';
      st.len <- p + 1
  | Micro.Turn { qubit; at; start; finish } ->
      reserve st turn_w;
      let b = st.chunk in
      set b st.len 'T';
      let p = put_int b (st.len + 1) qubit in
      set b p ' ';
      let p = put_coord b (p + 1) at in
      set b p ' ';
      let p = put_float st (p + 1) start in
      set b p ' ';
      let p = put_float st (p + 1) finish in
      set b p '\n';
      st.len <- p + 1
  | Micro.Gate_start { instr_id; trap; qubits; time } -> put_gate st '+' instr_id trap qubits time
  | Micro.Gate_end { instr_id; trap; qubits; time } -> put_gate st '-' instr_id trap qubits time

let digest_state () =
  {
    chunk = Bytes.create 512;
    len = 0;
    hash = 0xcbf29ce484222325L;
    seen = Array.make seen_slots 0.0;
    seen_text = Bytes.create (seen_slots * float_w);
    seen_len = Bytes.create seen_slots;
  }

let digest st =
  flush st;
  st.hash

let digest_trace trace =
  let st = digest_state () in
  List.iter (put_command st) trace;
  digest st

(* [Float.max] (NaN wins, +0 beats -0) with the ordered cases inline, so
   the replay's running maxima stay unboxed. *)
let[@inline] fmax x y =
  if y > x then y else if x > y || (x = y && x <> 0.0) then x else Float.max x y

(* The hot loop's small predicates: [Coord.equal], [Coord.manhattan _ _ =
   1], [Micro.time] and [Qasm.Instr.is_gate], restated here because dune's
   default profile compiles libraries [-opaque], so calls across libraries
   are never inlined. *)
let[@inline] same_cell (a : Coord.t) (b : Coord.t) =
  a.Coord.x = b.Coord.x && a.Coord.y = b.Coord.y

let[@inline] unit_step (a : Coord.t) (b : Coord.t) =
  abs (a.Coord.x - b.Coord.x) + abs (a.Coord.y - b.Coord.y) = 1

let[@inline] time_of = function
  | Micro.Move { start; _ } | Micro.Turn { start; _ } -> start
  | Micro.Gate_start { time; _ } | Micro.Gate_end { time; _ } -> time

let[@inline] is_gate = function
  | Qasm.Instr.Gate1 _ | Qasm.Instr.Gate2 _ -> true
  | Qasm.Instr.Qubit_decl _ -> false

(* --- the replay's scratch ---

   The resource- and trace-sized state of a check lives in columns that
   each domain reuses from check to check (a check never re-enters itself)
   and grows on demand, so certifying a job puts no resource- or
   trace-sized block on the major heap; what a domain retains is bounded
   by the largest fabric and trace it has certified.  A check owns the columns
   until it returns.

   Cells are classified by the component's own cell index
   ([Fabric.Component.cell_code]): a channel cell reads its segment id
   [0..S-1], a junction its resource id [S + jid], a trap a code below
   [empty_cell], and empty and out-of-bounds cells [empty_cell].

   [res], [qubit], [lo] and [hi] hold one row per visit: a qubit's run of
   touches on one resource, merged in place while each touch starts
   within [eps] of the run's end (a ride along a segment is one row).
   Rows are in the order the replay opens them, so per resource they are
   in start order.  [first], [by_res], [ent] and [ext] serve the capacity
   sweep. *)
let empty_cell = -1
let[@inline] is_trap code = code < empty_cell

type scratch = {
  mutable n : int;  (* visit rows in use *)
  mutable res : int array;
  mutable qubit : int array;
  mutable lo : float array;
  mutable hi : float array;
  mutable first : int array;
  mutable by_res : int array;
  mutable ent : float array;
  mutable ext : float array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        n = 0;
        res = Array.make 64 0;
        qubit = Array.make 64 0;
        lo = Array.make 64 0.0;
        hi = Array.make 64 0.0;
        first = [||];
        by_res = [||];
        ent = [||];
        ext = [||];
      })

(* [a] when it holds [n] cells, else a fresh column of at least [n] *)
let at_least a n fill =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) fill

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* [last.(q)] is the row of [q]'s latest visit, or -1 *)
let touch v last q r lo hi =
  let i = last.(q) in
  if i >= 0 && v.res.(i) = r && lo <= v.hi.(i) +. eps then v.hi.(i) <- fmax v.hi.(i) hi
  else begin
    if v.n = Array.length v.res then begin
      v.res <- grow v.res 0;
      v.qubit <- grow v.qubit 0;
      v.lo <- grow v.lo 0.0;
      v.hi <- grow v.hi 0.0
    end;
    let n = v.n in
    v.res.(n) <- r;
    v.qubit.(n) <- q;
    v.lo.(n) <- lo;
    v.hi.(n) <- hi;
    last.(q) <- n;
    v.n <- n + 1
  end

(* Ascending sort of [a.(0 .. n-1)] under [Float.compare].  Entries come
   sorted and exits nearly so, so insertion sort does the work; past a
   budget of shifts (a forged trace) heapsort finishes it. *)
let sort_times (a : float array) n =
  let budget = ref (8 * n) and i = ref 1 in
  while !i < n && !budget >= 0 do
    let x = a.(!i) and j = ref (!i - 1) in
    while !j >= 0 && Float.compare a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x;
    budget := !budget - (!i - 1 - !j);
    incr i
  done;
  if !i < n then begin
    let rec sift i len =
      let l = (2 * i) + 1 in
      if l < len then begin
        let c = if l + 1 < len && Float.compare a.(l) a.(l + 1) < 0 then l + 1 else l in
        if Float.compare a.(i) a.(c) < 0 then begin
          let t = a.(i) in
          a.(i) <- a.(c);
          a.(c) <- t;
          sift c len
        end
      end
    in
    for i = (n / 2) - 1 downto 0 do
      sift i n
    done;
    for last = n - 1 downto 1 do
      let t = a.(0) in
      a.(0) <- a.(last);
      a.(last) <- t;
      sift 0 last
    done
  end

(* Peak level of [n] occupancy intervals given their sorted entry and exit
   times, and the time it is first reached.  Exits go first at equal times
   (half-open intervals: an exit at [t] frees the slot for an entry at
   [t]). *)
let peak ent ext n =
  let level = ref 0 and worst = ref 0 and worst_at = ref 0.0 and i = ref 0 and j = ref 0 in
  while !i < n do
    if !j < n && Float.compare ext.(!j) ent.(!i) <= 0 then begin
      decr level;
      incr j
    end
    else begin
      incr level;
      if !level > !worst then begin
        worst := !level;
        worst_at := ent.(!i)
      end;
      incr i
    end
  done;
  (!worst, !worst_at)

(* the axis of a unit step; [No_axis] after a move that cannot start an
   axis change (no unit step, or a hop out of a trap) *)
type axis = H | V | No_axis

let axis_of a b = if a.Coord.y = b.Coord.y then H else V

(* [qubits] is the operand multiset of [instr]; the common one- and
   two-qubit shapes are settled without sorting *)
let same_operands instr qubits =
  match (instr, qubits) with
  | Qasm.Instr.Gate1 (_, a), [ x ] -> a = x
  | Qasm.Instr.Gate2 (_, a, b), [ x; y ] -> (a = x && b = y) || (a = y && b = x)
  | _ -> List.sort compare (Qasm.Instr.qubits instr) = List.sort compare qubits

(* the replay's running makespan, as a flat float *)
type clock = { mutable makespan : float }

(* The command count when [trace] is in time order (every engine trace
   is), or -1: one pass for both. *)
let rec in_order n prev = function
  | [] -> n
  | c :: tl ->
      let t = time_of c in
      if Float.compare prev t > 0 then -1 else in_order (n + 1) t tl

let check ~component:comp ~timing ~channel_capacity ~junction_capacity ~dag ~initial_placement
    ?final_placement ?(faulted = []) ?lower_bound ~claimed_latency trace =
  let trace, commands =
    match trace with
    | [] -> ([], 0)
    | c :: tl -> (
        match in_order 1 (time_of c) tl with
        | -1 ->
            (List.stable_sort (fun a b -> Float.compare (time_of a) (time_of b)) trace,
             List.length trace)
        | n -> (trace, n))
  in
  let sc = Domain.DLS.get scratch_key in
  sc.n <- 0;
  let code_at = Fabric.Component.cell_code comp in
  let nsegs = Array.length (Fabric.Component.segments comp) in
  let nres = Fabric.Component.num_resources comp in
  (* faulted cells in a flat index too, with off-layout ones kept in the list *)
  let lay = Fabric.Component.layout comp in
  let width = Fabric.Layout.width lay in
  let cell_index (c : Coord.t) =
    if Fabric.Layout.in_bounds lay c then (c.Coord.y * width) + c.Coord.x else -1
  in
  let any_faulted = faulted <> [] in
  let faulted_cell =
    Array.make (if any_faulted then width * Fabric.Layout.height lay else 0) false
  in
  List.iter
    (fun c ->
      let i = cell_index c in
      if i >= 0 then faulted_cell.(i) <- true)
    faulted;
  let is_faulted c =
    let i = cell_index c in
    if i >= 0 then faulted_cell.(i) else List.exists (same_cell c) faulted
  in
  let nfind = ref 0 and findings = ref [] in
  let emit f =
    incr nfind;
    if !nfind <= max_reported then findings := f :: !findings
  in
  let traps = Fabric.Component.traps comp in
  let ntraps = Array.length traps in
  let nq = Array.length initial_placement in
  let nnodes = Qasm.Dag.num_nodes dag in
  (* --- initial placement: in range, at most two ions per trap --- *)
  let occ = Array.make (max ntraps 1) 0 in
  Array.iteri
    (fun q tid ->
      if tid < 0 || tid >= ntraps then
        emit
          (F.make ~pass ~kind:"bad-placement" ~loc:(F.Qubit q) F.Error
             "initial placement of q%d is trap %d, out of range (fabric has %d traps)" q tid
             ntraps)
      else begin
        occ.(tid) <- occ.(tid) + 1;
        if occ.(tid) = 3 then
          emit
            (F.make ~pass ~kind:"bad-placement" ~loc:(F.Cell traps.(tid).Fabric.Component.tpos)
               F.Error "more than two ions start in the trap at %s"
               (Coord.to_string traps.(tid).Fabric.Component.tpos))
      end)
    initial_placement;
  (* --- replay state, int-indexed by qubit and instruction --- *)
  let pos =
    Array.map
      (fun tid ->
        if tid >= 0 && tid < ntraps then traps.(tid).Fabric.Component.tpos else Coord.make 0 0)
      initial_placement
  in
  let free_at = Array.make (max nq 1) 0.0 in
  let prev_axis = Array.make (max nq 1) No_axis in
  let turned = Array.make (max nq 1) false in
  let exec = Array.make (max nnodes 1) 0 in
  let started = Array.make (max nnodes 1) false and start_time = Array.make (max nnodes 1) 0.0 in
  let ended = Array.make (max nnodes 1) false and end_time = Array.make (max nnodes 1) 0.0 in
  let open_ = Array.make (max nnodes 1) false in
  let open_time = Array.make (max nnodes 1) 0.0 in
  let open_trap = Array.make (max nnodes 1) (Coord.make 0 0) in
  let last_visit = Array.make (max nq 1) (-1) in
  let clock = { makespan = 0.0 } in
  let moves = ref 0 and turns = ref 0 and gates = ref 0 in
  let qubit_ok q = q >= 0 && q < nq in
  let fault_check idx what c =
    if is_faulted c then
      emit
        (F.make ~pass ~kind:"faulted-resource" ~loc:(F.Command idx) F.Error
           "%s touches the faulted resource at %s" what (Coord.to_string c))
  in
  (* a gate's operands, walked without a closure per gate *)
  let rec start_operands idx instr_id trap time delay = function
    | [] -> ()
    | q :: tl ->
        if not (qubit_ok q) then
          emit
            (F.make ~pass ~kind:"bad-operand" ~loc:(F.Command idx) F.Error
               "gate #%d involves unknown qubit q%d" instr_id q)
        else begin
          if not (same_cell pos.(q) trap) then
            emit
              (F.make ~pass ~kind:"absent-operand" ~loc:(F.Command idx) F.Error
                 "gate #%d starts at %s but q%d is at %s" instr_id (Coord.to_string trap) q
                 (Coord.to_string pos.(q)));
          if time < free_at.(q) -. eps then
            emit
              (F.make ~pass ~kind:"overlap" ~loc:(F.Command idx) F.Error
                 "gate #%d starts at %.2f us while q%d is busy until %.2f us" instr_id time q
                 free_at.(q));
          (* the ion is held in the trap for the gate *)
          free_at.(q) <- time +. delay
        end;
        start_operands idx instr_id trap time delay tl
  in
  let rec release time = function
    | [] -> ()
    | q :: tl ->
        if qubit_ok q then free_at.(q) <- fmax free_at.(q) time;
        release time tl
  in
  (* the digest renders each command as the replay reaches it *)
  let st = digest_state () in
  let rec replay idx = function
    | [] -> ()
    | cmd :: rest ->
        put_command st cmd;
        (match cmd with
        | Micro.Move { qubit; from_; to_; start; finish } ->
            incr moves;
            clock.makespan <- fmax clock.makespan finish;
            if any_faulted then begin
              fault_check idx "move" from_;
              fault_check idx "move" to_
            end;
            if not (qubit_ok qubit) then
              emit
                (F.make ~pass ~kind:"bad-operand" ~loc:(F.Command idx) F.Error
                   "move of unknown qubit q%d" qubit)
            else begin
              let continuous = same_cell from_ pos.(qubit) in
              if not continuous then
                emit
                  (F.make ~pass ~kind:"teleport" ~loc:(F.Command idx) F.Error
                     "q%d teleports: move departs %s but the ion is at %s" qubit
                     (Coord.to_string from_) (Coord.to_string pos.(qubit)));
              if start < free_at.(qubit) -. eps then
                emit
                  (F.make ~pass ~kind:"overlap" ~loc:(F.Command idx) F.Error
                     "q%d moves at %.2f us while busy until %.2f us" qubit start free_at.(qubit));
              if Float.abs (finish -. start -. timing.Router.Timing.t_move) > eps then
                emit
                  (F.make ~pass ~kind:"bad-duration" ~loc:(F.Command idx) F.Error
                     "move takes %.4f us, the technology's t_move is %.4f us" (finish -. start)
                     timing.Router.Timing.t_move);
              let from_code = code_at from_ in
              let unit_step = unit_step from_ to_ in
              if not unit_step then
                emit
                  (F.make ~pass ~kind:"bad-step" ~loc:(F.Command idx) F.Error
                     "move %s -> %s is not a unit step" (Coord.to_string from_)
                     (Coord.to_string to_))
              else begin
                let to_code = code_at to_ in
                if to_code = empty_cell then
                  emit
                    (F.make ~pass ~kind:"off-fabric" ~loc:(F.Command idx) F.Error
                       "q%d moves into the empty cell at %s" qubit (Coord.to_string to_));
                (* axis change between consecutive moves: legal only at a
                   junction, after a turn; hops in or out of a trap are
                   exempt (the tap link has no orientation).  The previous
                   move ended where the ion is, so a continuous move follows
                   it directly. *)
                let prev = prev_axis.(qubit) in
                if
                  continuous && prev <> No_axis && prev <> axis_of from_ to_
                  && not (is_trap to_code)
                then
                  if from_code >= nsegs then begin
                    if not turned.(qubit) then
                      emit
                        (F.make ~pass ~kind:"missing-turn" ~loc:(F.Command idx) F.Error
                           "q%d changes axis at the junction %s without a turn" qubit
                           (Coord.to_string from_))
                  end
                  else
                    emit
                      (F.make ~pass ~kind:"channel-corner" ~loc:(F.Command idx) F.Error
                         "q%d changes axis at %s, which is not a junction" qubit
                         (Coord.to_string from_));
                if from_code >= 0 then touch sc last_visit qubit from_code start finish;
                if to_code >= 0 then touch sc last_visit qubit to_code start finish
              end;
              pos.(qubit) <- to_;
              free_at.(qubit) <- finish;
              prev_axis.(qubit) <-
                (if unit_step && not (is_trap from_code) then axis_of from_ to_ else No_axis);
              turned.(qubit) <- false
            end
        | Micro.Turn { qubit; at; start; finish } ->
            incr turns;
            clock.makespan <- fmax clock.makespan finish;
            if any_faulted then fault_check idx "turn" at;
            if not (qubit_ok qubit) then
              emit
                (F.make ~pass ~kind:"bad-operand" ~loc:(F.Command idx) F.Error
                   "turn of unknown qubit q%d" qubit)
            else begin
              if not (same_cell at pos.(qubit)) then
                emit
                  (F.make ~pass ~kind:"teleport" ~loc:(F.Command idx) F.Error
                     "q%d turns at %s but the ion is at %s" qubit (Coord.to_string at)
                     (Coord.to_string pos.(qubit)));
              if start < free_at.(qubit) -. eps then
                emit
                  (F.make ~pass ~kind:"overlap" ~loc:(F.Command idx) F.Error
                     "q%d turns at %.2f us while busy until %.2f us" qubit start free_at.(qubit));
              let at_code = code_at at in
              if at_code < nsegs then
                emit
                  (F.make ~pass ~kind:"turn-outside-junction" ~loc:(F.Command idx) F.Error
                     "q%d turns at %s, which is not a junction" qubit (Coord.to_string at));
              if Float.abs (finish -. start -. timing.Router.Timing.t_turn) > eps then
                emit
                  (F.make ~pass ~kind:"bad-duration" ~loc:(F.Command idx) F.Error
                     "turn takes %.4f us, the technology's t_turn is %.4f us" (finish -. start)
                     timing.Router.Timing.t_turn);
              if at_code >= 0 then touch sc last_visit qubit at_code start finish;
              free_at.(qubit) <- finish;
              turned.(qubit) <- true
            end
        | Micro.Gate_start { instr_id; trap; qubits; time } ->
            clock.makespan <- fmax clock.makespan time;
            if any_faulted then fault_check idx "gate" trap;
            if instr_id < 0 || instr_id >= nnodes then
              emit
                (F.make ~pass ~kind:"unknown-instruction" ~loc:(F.Command idx) F.Error
                   "gate event references instruction #%d, outside the program" instr_id)
            else begin
              let instr = (Qasm.Dag.node dag instr_id).Qasm.Dag.instr in
              if not (is_gate instr) then
                emit
                  (F.make ~pass ~kind:"unknown-instruction" ~loc:(F.Command idx) F.Error
                     "gate event for instruction #%d, which is not a gate" instr_id)
              else begin
                exec.(instr_id) <- exec.(instr_id) + 1;
                if exec.(instr_id) > 1 then
                  emit
                    (F.make ~pass ~kind:"duplicate-gate" ~loc:(F.Instruction instr_id) F.Error
                       "gate #%d executes %d times" instr_id exec.(instr_id));
                if not (same_operands instr qubits) then begin
                  let show qs = String.concat ";" (List.map string_of_int (List.sort compare qs)) in
                  emit
                    (F.make ~pass ~kind:"operand-mismatch" ~loc:(F.Command idx) F.Error
                       "gate #%d runs on qubits [%s], the program says [%s]" instr_id (show qubits)
                       (show (Qasm.Instr.qubits instr)))
                end;
                if not (is_trap (code_at trap)) then
                  emit
                    (F.make ~pass ~kind:"gate-site" ~loc:(F.Command idx) F.Error
                       "gate #%d executes at %s, which is not a trap" instr_id
                       (Coord.to_string trap));
                start_operands idx instr_id trap time
                  (Router.Timing.gate_delay timing instr)
                  qubits;
                if not started.(instr_id) then begin
                  started.(instr_id) <- true;
                  start_time.(instr_id) <- time
                end;
                open_.(instr_id) <- true;
                open_time.(instr_id) <- time;
                open_trap.(instr_id) <- trap
              end
            end
        | Micro.Gate_end { instr_id; trap; qubits; time } ->
            clock.makespan <- fmax clock.makespan time;
            if instr_id < 0 || instr_id >= nnodes then
              emit
                (F.make ~pass ~kind:"unknown-instruction" ~loc:(F.Command idx) F.Error
                   "gate event references instruction #%d, outside the program" instr_id)
            else if not open_.(instr_id) then
              emit
                (F.make ~pass ~kind:"gate-pairing" ~loc:(F.Command idx) F.Error
                   "gate #%d ends without having started" instr_id)
            else begin
              open_.(instr_id) <- false;
              incr gates;
              let strap = open_trap.(instr_id) and t0 = open_time.(instr_id) in
              if not (same_cell strap trap) then
                emit
                  (F.make ~pass ~kind:"gate-pairing" ~loc:(F.Command idx) F.Error
                     "gate #%d starts at %s but ends at %s" instr_id (Coord.to_string strap)
                     (Coord.to_string trap));
              let instr = (Qasm.Dag.node dag instr_id).Qasm.Dag.instr in
              let d = Router.Timing.gate_delay timing instr in
              if Float.abs (time -. t0 -. d) > eps then
                emit
                  (F.make ~pass ~kind:"bad-duration" ~loc:(F.Command idx) F.Error
                     "gate #%d runs for %.4f us, its delay is %.4f us" instr_id (time -. t0) d);
              ended.(instr_id) <- true;
              end_time.(instr_id) <- time;
              release time qubits
            end);
        replay (idx + 1) rest
  in
  replay 0 trace;
  (* --- dangling starts, by instruction id, and completeness --- *)
  for i = 0 to nnodes - 1 do
    if open_.(i) then
      emit
        (F.make ~pass ~kind:"gate-pairing" ~loc:(F.Instruction i) F.Error
           "gate #%d starts but never ends" i)
  done;
  let missing = ref 0 and first_missing = ref (-1) in
  for i = 0 to nnodes - 1 do
    if is_gate (Qasm.Dag.node dag i).Qasm.Dag.instr && exec.(i) = 0 then begin
      incr missing;
      if !first_missing < 0 then first_missing := i
    end
  done;
  if !missing > 0 then
    emit
      (F.make ~pass ~kind:"missing-gate" ~loc:(F.Instruction !first_missing) F.Error
         "%d program gate(s) never execute (first: #%d)" !missing !first_missing);
  (* --- dependency order, on the recorded times: order-independent, so
         equal-timestamp command ties (common in time-mirrored backward
         traces) cannot misreport --- *)
  for i = 0 to nnodes - 1 do
    if started.(i) then begin
      let tstart = start_time.(i) in
      List.iter
        (fun p ->
          if is_gate (Qasm.Dag.node dag p).Qasm.Dag.instr then
            if ended.(p) then begin
              let tend = end_time.(p) in
              if tstart < tend -. eps then
                emit
                  (F.make ~pass ~kind:"dependency" ~loc:(F.Instruction i) F.Error
                     "gate #%d starts at %.2f us before its dependency #%d finishes at %.2f us" i
                     tstart p tend)
            end
            else
              emit
                (F.make ~pass ~kind:"dependency" ~loc:(F.Instruction i) F.Error
                   "gate #%d executes but its dependency #%d never finishes" i p))
        (Qasm.Dag.node dag i).Qasm.Dag.preds
    end
  done;
  (* --- capacity sweep, resource by resource in id order (segments, then
         junctions).  A qubit's visits to one resource merge into
         occupancy intervals when one starts within [eps] of the interval
         so far; the level sweep then counts each interval once. --- *)
  sc.first <- at_least sc.first (nres + 1) 0;
  let first = sc.first in
  Array.fill first 0 (nres + 1) 0;
  for k = 0 to sc.n - 1 do
    first.(sc.res.(k) + 1) <- first.(sc.res.(k) + 1) + 1
  done;
  let widest = ref 0 in
  for r = 0 to nres - 1 do
    if first.(r + 1) > !widest then widest := first.(r + 1);
    first.(r + 1) <- first.(r + 1) + first.(r)
  done;
  (* bucket the rows by resource, in order; [first.(r)] then ends bucket [r] *)
  sc.by_res <- at_least sc.by_res sc.n 0;
  let by_res = sc.by_res in
  for k = 0 to sc.n - 1 do
    let r = sc.res.(k) in
    by_res.(first.(r)) <- k;
    first.(r) <- first.(r) + 1
  done;
  sc.ent <- at_least sc.ent !widest 0.0;
  sc.ext <- at_least sc.ext !widest 0.0;
  let ent = sc.ent and ext = sc.ext in
  (* [interval.(q)]: the row holding [q]'s current interval on the resource *)
  let interval = Array.make (max nq 1) (-1) in
  let segments = Fabric.Component.segments comp and junctions = Fabric.Component.junctions comp in
  for r = 0 to nres - 1 do
    let bucket = if r = 0 then 0 else first.(r - 1) in
    let n = ref 0 in
    for k = bucket to first.(r) - 1 do
      let i = by_res.(k) in
      let q = sc.qubit.(i) in
      let g = interval.(q) in
      if g >= 0 && sc.lo.(i) <= sc.hi.(g) +. eps then sc.hi.(g) <- fmax sc.hi.(g) sc.hi.(i)
      else begin
        interval.(q) <- i;
        by_res.(bucket + !n) <- i;
        incr n
      end
    done;
    for k = 0 to !n - 1 do
      let i = by_res.(bucket + k) in
      ent.(k) <- sc.lo.(i);
      ext.(k) <- sc.hi.(i);
      interval.(sc.qubit.(i)) <- -1
    done;
    sort_times ent !n;
    sort_times ext !n;
    let worst, worst_at = peak ent ext !n in
    let cap, name, pos_of =
      if r < nsegs then (channel_capacity, "segment", segments.(r).Fabric.Component.cells.(0))
      else (junction_capacity, "junction", junctions.(r - nsegs).Fabric.Component.jpos)
    in
    if !n > 0 && worst > cap then
      emit
        (F.make ~pass ~kind:"capacity" ~loc:(F.Cell pos_of)
           ~extra:[ ("level", Json.Int worst); ("time_us", Json.Float worst_at) ]
           F.Error "%d ions occupy the %s at %s at %.2f us, capacity is %d" worst name
           (Coord.to_string pos_of) worst_at cap)
  done;
  let makespan = clock.makespan in
  (* --- accounting --- *)
  if Float.abs (claimed_latency -. makespan) > 1e-6 then
    emit
      (F.make ~pass ~kind:"latency-mismatch"
         ~extra:[ ("claimed", Json.Float claimed_latency); ("replayed", Json.Float makespan) ]
         F.Error "claimed latency %.4f us, replayed makespan %.4f us" claimed_latency makespan);
  (match final_placement with
  | None -> ()
  | Some fp ->
      if Array.length fp <> nq then
        emit
          (F.make ~pass ~kind:"final-placement" F.Error
             "final placement has %d entries for %d qubits" (Array.length fp) nq)
      else
        Array.iteri
          (fun q tid ->
            if tid < 0 || tid >= ntraps then
              emit
                (F.make ~pass ~kind:"final-placement" ~loc:(F.Qubit q) F.Error
                   "final placement of q%d is trap %d, out of range" q tid)
            else if not (same_cell pos.(q) traps.(tid).Fabric.Component.tpos) then
              emit
                (F.make ~pass ~kind:"final-placement" ~loc:(F.Qubit q) F.Error
                   "final placement says q%d rests in the trap at %s, the replay leaves it at %s"
                   q
                   (Coord.to_string traps.(tid).Fabric.Component.tpos)
                   (Coord.to_string pos.(q))))
          fp);
  (* --- admissible lower bound vs claimed latency: a certified bound can
         never exceed the latency of a legal execution, so a violation
         means either a forged certificate or a broken bound --- *)
  (match lower_bound with
  | Some (lb, kind) when lb > claimed_latency +. 1e-6 ->
      emit
        (F.make ~pass ~kind:"bound-violation"
           ~extra:
             [
               ("lower_bound_us", Json.Float lb);
               ("bound_kind", Json.String (Estimator.Bound.kind_to_string kind));
             ]
           F.Error
           "claimed lower bound %.4f us (%s) exceeds the claimed latency %.4f us: an \
            admissible bound can never do that"
           lb
           (Estimator.Bound.kind_to_string kind)
           claimed_latency)
  | _ -> ());
  (* every finding above is an error, kept in the order found; the note
     that some were dropped comes last, outside the cap *)
  let findings =
    if !nfind <= max_reported then List.rev !findings
    else
      List.rev_append !findings
        [
          F.make ~pass ~kind:"truncated" F.Warning "%d further finding(s) suppressed"
            (!nfind - max_reported);
        ]
  in
  {
    valid = F.is_clean findings;
    claimed_latency;
    replayed_makespan = makespan;
    commands;
    moves = !moves;
    turns = !turns;
    gates = !gates;
    digest = digest st;
    lower_bound = Option.map fst lower_bound;
    bound_kind = Option.map snd lower_bound;
    findings;
  }

let of_solution ctx (sol : Qspr.Mapper.solution) =
  let config = Qspr.Mapper.config ctx and policy = sol.Qspr.Mapper.policy in
  check ~component:(Qspr.Mapper.component ctx) ~timing:config.Qspr.Config.timing
    ~channel_capacity:policy.Simulator.Engine.channel_capacity
    ~junction_capacity:policy.Simulator.Engine.junction_capacity ~dag:(Qspr.Mapper.dag ctx)
    ~initial_placement:sol.Qspr.Mapper.initial_placement
    ~final_placement:sol.Qspr.Mapper.final_placement
    ~lower_bound:(sol.Qspr.Mapper.lower_bound_us, sol.Qspr.Mapper.bound_kind)
    ~claimed_latency:sol.Qspr.Mapper.latency sol.Qspr.Mapper.trace

let to_json c =
  Json.Obj
    [
      ("schema", Json.String "qspr-certificate/2");
      ("valid", Json.Bool c.valid);
      ("claimed_latency_us", Json.Float c.claimed_latency);
      ("replayed_makespan_us", Json.Float c.replayed_makespan);
      ("commands", Json.Int c.commands);
      ("moves", Json.Int c.moves);
      ("turns", Json.Int c.turns);
      ("gates", Json.Int c.gates);
      ("digest", Json.String (Printf.sprintf "%016Lx" c.digest));
      ( "lower_bound_us",
        match c.lower_bound with Some lb -> Json.Float lb | None -> Json.Null );
      ( "bound_kind",
        match c.bound_kind with
        | Some k -> Json.String (Estimator.Bound.kind_to_string k)
        | None -> Json.Null );
      ( "optimality_gap",
        match optimality_gap c with Some g -> Json.Float g | None -> Json.Null );
      ("findings", Json.List (List.map F.to_json c.findings));
    ]

let pp fmt c =
  if c.valid then begin
    Format.fprintf fmt
      "certificate OK: %.2f us, %d commands (%d moves, %d turns, %d gates), digest %016Lx"
      c.replayed_makespan c.commands c.moves c.turns c.gates c.digest;
    match (c.lower_bound, c.bound_kind, optimality_gap c) with
    | Some lb, Some k, Some g ->
        Format.fprintf fmt ", lower bound %.2f us (%s, gap %.1f%%)" lb
          (Estimator.Bound.kind_to_string k) (100.0 *. g)
    | _ -> ()
  end
  else
    Format.fprintf fmt "certificate FAILED (%d error(s)):@,%a"
      (F.count F.Error c.findings)
      (Format.pp_print_list F.pp) c.findings
