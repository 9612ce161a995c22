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
  match c.lower_bound with
  | Some lb when lb > 0.0 -> Some ((c.claimed_latency -. lb) /. lb)
  | _ -> None

(* Canonical rendering for the digest, one line per command:

     M<q> <x>,<y>><x>,<y> <start> <finish>
     T<q> <x>,<y> <start> <finish>
     G+<id> <x>,<y> [<q>,<q>,...] <time>     (G- for a gate end)

   ints in decimal, floats in OCaml's exact [%h] hex notation, so two traces
   digest equal iff they are bit-identical schedules.  The bytes are
   streamed through FNV-1a 64 a chunk at a time — nothing is rendered with
   [Printf] and no trace-sized string is built.  The certifier sits past
   the flat->variant decode boundary: the engine builds traces in packed
   arenas (doc/memory.md), but what reaches this pass is the materialized
   [Micro.command list], so digests are a pure function of the commands and
   can never observe the packed representation. *)
type digest_state = { chunk : Bytes.t; mutable len : int; mutable hash : int64 }

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

let put_char st c =
  if st.len = Bytes.length st.chunk then flush st;
  Bytes.unsafe_set st.chunk st.len c;
  st.len <- st.len + 1

let put_string st s =
  for i = 0 to String.length s - 1 do
    put_char st (String.unsafe_get s i)
  done

let digit_char d = Char.unsafe_chr (d + if d < 10 then 48 else 87)

(* decimal, like [%d]: digits of [n <= 0], so [min_int] needs no negation *)
let rec put_nonpos st n =
  if n <= -10 then put_nonpos st (n / 10);
  put_char st (digit_char (-(n mod 10)))

let put_int st n =
  if n < 0 then begin
    put_char st '-';
    put_nonpos st n
  end
  else put_nonpos st (-n)

(* [%h]: [-]0x<lead>[.<nibbles>]p<sign><exp>, trailing zero nibbles dropped;
   zero and subnormals lead with 0 (subnormals at p-1022); specials print as
   [infinity] / [nan], signed like any other value. *)
let put_hex_float st x =
  let bits = Int64.bits_of_float x in
  let top = Int64.to_int (Int64.shift_right_logical bits 52) in
  let exp = top land 0x7ff in
  let frac_mask = (1 lsl 52) - 1 in
  let frac = Int64.to_int bits land frac_mask in
  if top land 0x800 <> 0 then put_char st '-';
  if exp = 0x7ff then put_string st (if frac = 0 then "infinity" else "nan")
  else begin
    put_char st '0';
    put_char st 'x';
    put_char st (if exp = 0 then '0' else '1');
    if frac <> 0 then begin
      put_char st '.';
      let m = ref frac in
      while !m <> 0 do
        put_char st (digit_char (!m lsr 48));
        m := (!m lsl 4) land frac_mask
      done
    end;
    let e = if exp <> 0 then exp - 1023 else if frac = 0 then 0 else -1022 in
    put_char st 'p';
    if e >= 0 then put_char st '+';
    put_int st e
  end

let put_coord st (c : Coord.t) =
  put_int st c.Coord.x;
  put_char st ',';
  put_int st c.Coord.y

let rec put_qubits st = function
  | [] -> ()
  | [ q ] -> put_int st q
  | q :: tl ->
      put_int st q;
      put_char st ',';
      put_qubits st tl

let put_gate st tag instr_id trap qubits time =
  put_string st tag;
  put_int st instr_id;
  put_char st ' ';
  put_coord st trap;
  put_string st " [";
  put_qubits st qubits;
  put_string st "] ";
  put_hex_float st time;
  put_char st '\n'

let put_command st = function
  | Micro.Move { qubit; from_; to_; start; finish } ->
      put_char st 'M';
      put_int st qubit;
      put_char st ' ';
      put_coord st from_;
      put_char st '>';
      put_coord st to_;
      put_char st ' ';
      put_hex_float st start;
      put_char st ' ';
      put_hex_float st finish;
      put_char st '\n'
  | Micro.Turn { qubit; at; start; finish } ->
      put_char st 'T';
      put_int st qubit;
      put_char st ' ';
      put_coord st at;
      put_char st ' ';
      put_hex_float st start;
      put_char st ' ';
      put_hex_float st finish;
      put_char st '\n'
  | Micro.Gate_start { instr_id; trap; qubits; time } -> put_gate st "G+" instr_id trap qubits time
  | Micro.Gate_end { instr_id; trap; qubits; time } -> put_gate st "G-" instr_id trap qubits time

let digest_trace trace =
  let st = { chunk = Bytes.create 512; len = 0; hash = 0xcbf29ce484222325L } in
  List.iter (put_command st) trace;
  flush st;
  st.hash

type axis = H | V

let axis_of a b = if a.Coord.y = b.Coord.y then H else V

(* resources an occupied cell belongs to, for the capacity sweep *)
type resource = Seg of int | Junc of int

let check ~component:comp ~timing ~channel_capacity ~junction_capacity ~dag ~initial_placement
    ?final_placement ?(faulted = []) ?lower_bound ~claimed_latency trace =
  let commands = List.length trace in
  let faulted_tbl = Hashtbl.create (max 1 (List.length faulted)) in
  List.iter (fun c -> Hashtbl.replace faulted_tbl (c.Coord.x, c.Coord.y) ()) faulted;
  let is_faulted c = faulted <> [] && Hashtbl.mem faulted_tbl (c.Coord.x, c.Coord.y) in
  let layout = Fabric.Component.layout comp in
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
  (* --- replay state --- *)
  let pos =
    Array.map
      (fun tid ->
        if tid >= 0 && tid < ntraps then traps.(tid).Fabric.Component.tpos else Coord.make 0 0)
      initial_placement
  in
  let free_at = Array.make (max nq 1) 0.0 in
  let prev_move = Array.make (max nq 1) None in
  let turned = Array.make (max nq 1) false in
  let exec = Array.make (max nnodes 1) 0 in
  let started = Array.make (max nnodes 1) None in
  let ended = Array.make (max nnodes 1) None in
  let open_gates : (int, float * Coord.t) Hashtbl.t = Hashtbl.create 16 in
  (* per-(qubit, resource) occupancy intervals, merged later *)
  let touches : (int * resource, (float * float) list ref) Hashtbl.t = Hashtbl.create 64 in
  (* each qubit's last-touched resource and its list: a run of moves along
     one segment skips the table, which still sees every first touch in
     the same order *)
  let last_touch = Array.make (max nq 1) None in
  let touch q res lo hi =
    match last_touch.(q) with
    | Some (r, l) when r = res -> l := (lo, hi) :: !l
    | _ ->
        let l =
          match Hashtbl.find_opt touches (q, res) with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.add touches (q, res) l;
              l
        in
        l := (lo, hi) :: !l;
        last_touch.(q) <- Some (res, l)
  in
  let touch_cell q c lo hi =
    match Fabric.Component.segment_at comp c with
    | Some s -> touch q (Seg s) lo hi
    | None -> (
        match Fabric.Component.junction_at comp c with
        | Some j -> touch q (Junc j) lo hi
        | None -> ())
  in
  let makespan = ref 0.0 in
  let moves = ref 0 and turns = ref 0 and gates = ref 0 in
  (* engine traces arrive in time order; sorting is only needed otherwise *)
  let by_time a b = Float.compare (Micro.time a) (Micro.time b) in
  let rec sorted = function a :: (b :: _ as tl) -> by_time a b <= 0 && sorted tl | _ -> true in
  let trace = if sorted trace then trace else List.stable_sort by_time trace in
  let qubit_ok q = q >= 0 && q < nq in
  let cell_is c k = Fabric.Cell.equal (Fabric.Layout.get layout c) k in
  let fault_check idx what c =
    if is_faulted c then
      emit
        (F.make ~pass ~kind:"faulted-resource" ~loc:(F.Command idx) F.Error
           "%s touches the faulted resource at %s" what (Coord.to_string c))
  in
  List.iteri
    (fun idx cmd ->
      match cmd with
      | Micro.Move { qubit; from_; to_; start; finish } ->
          incr moves;
          makespan := Float.max !makespan finish;
          fault_check idx "move" from_;
          fault_check idx "move" to_;
          if not (qubit_ok qubit) then
            emit
              (F.make ~pass ~kind:"bad-operand" ~loc:(F.Command idx) F.Error
                 "move of unknown qubit q%d" qubit)
          else begin
            if not (Coord.equal from_ pos.(qubit)) then
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
            if Coord.manhattan from_ to_ <> 1 then
              emit
                (F.make ~pass ~kind:"bad-step" ~loc:(F.Command idx) F.Error
                   "move %s -> %s is not a unit step" (Coord.to_string from_)
                   (Coord.to_string to_))
            else begin
              if cell_is to_ Fabric.Cell.Empty then
                emit
                  (F.make ~pass ~kind:"off-fabric" ~loc:(F.Command idx) F.Error
                     "q%d moves into the empty cell at %s" qubit (Coord.to_string to_));
              (* axis change between consecutive moves: legal only at a
                 junction, after a turn; hops in or out of a trap are
                 exempt (the tap link has no orientation) *)
              (match prev_move.(qubit) with
              | Some (pfrom, pto) when Coord.equal pto from_ && Coord.manhattan pfrom pto = 1 ->
                  if axis_of pfrom pto <> axis_of from_ to_ then
                    if not (cell_is pfrom Fabric.Cell.Trap || cell_is to_ Fabric.Cell.Trap)
                    then begin
                      if cell_is from_ Fabric.Cell.Junction then begin
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
                             (Coord.to_string from_))
                    end
              | _ -> ());
              touch_cell qubit from_ start finish;
              touch_cell qubit to_ start finish
            end;
            pos.(qubit) <- to_;
            free_at.(qubit) <- finish;
            prev_move.(qubit) <- Some (from_, to_);
            turned.(qubit) <- false
          end
      | Micro.Turn { qubit; at; start; finish } ->
          incr turns;
          makespan := Float.max !makespan finish;
          fault_check idx "turn" at;
          if not (qubit_ok qubit) then
            emit
              (F.make ~pass ~kind:"bad-operand" ~loc:(F.Command idx) F.Error
                 "turn of unknown qubit q%d" qubit)
          else begin
            if not (Coord.equal at pos.(qubit)) then
              emit
                (F.make ~pass ~kind:"teleport" ~loc:(F.Command idx) F.Error
                   "q%d turns at %s but the ion is at %s" qubit (Coord.to_string at)
                   (Coord.to_string pos.(qubit)));
            if start < free_at.(qubit) -. eps then
              emit
                (F.make ~pass ~kind:"overlap" ~loc:(F.Command idx) F.Error
                   "q%d turns at %.2f us while busy until %.2f us" qubit start free_at.(qubit));
            if not (cell_is at Fabric.Cell.Junction) then
              emit
                (F.make ~pass ~kind:"turn-outside-junction" ~loc:(F.Command idx) F.Error
                   "q%d turns at %s, which is not a junction" qubit (Coord.to_string at));
            if Float.abs (finish -. start -. timing.Router.Timing.t_turn) > eps then
              emit
                (F.make ~pass ~kind:"bad-duration" ~loc:(F.Command idx) F.Error
                   "turn takes %.4f us, the technology's t_turn is %.4f us" (finish -. start)
                   timing.Router.Timing.t_turn);
            touch_cell qubit at start finish;
            free_at.(qubit) <- finish;
            turned.(qubit) <- true
          end
      | Micro.Gate_start { instr_id; trap; qubits; time } ->
          makespan := Float.max !makespan time;
          fault_check idx "gate" trap;
          if instr_id < 0 || instr_id >= nnodes then
            emit
              (F.make ~pass ~kind:"unknown-instruction" ~loc:(F.Command idx) F.Error
                 "gate event references instruction #%d, outside the program" instr_id)
          else begin
            let node = Qasm.Dag.node dag instr_id in
            let instr = node.Qasm.Dag.instr in
            if not (Qasm.Instr.is_gate instr) then
              emit
                (F.make ~pass ~kind:"unknown-instruction" ~loc:(F.Command idx) F.Error
                   "gate event for instruction #%d, which is not a gate" instr_id)
            else begin
              exec.(instr_id) <- exec.(instr_id) + 1;
              if exec.(instr_id) > 1 then
                emit
                  (F.make ~pass ~kind:"duplicate-gate" ~loc:(F.Instruction instr_id) F.Error
                     "gate #%d executes %d times" instr_id exec.(instr_id));
              let expected = List.sort compare (Qasm.Instr.qubits instr) in
              let got = List.sort compare qubits in
              if expected <> got then
                emit
                  (F.make ~pass ~kind:"operand-mismatch" ~loc:(F.Command idx) F.Error
                     "gate #%d runs on qubits [%s], the program says [%s]" instr_id
                     (String.concat ";" (List.map string_of_int got))
                     (String.concat ";" (List.map string_of_int expected)));
              if not (cell_is trap Fabric.Cell.Trap) then
                emit
                  (F.make ~pass ~kind:"gate-site" ~loc:(F.Command idx) F.Error
                     "gate #%d executes at %s, which is not a trap" instr_id
                     (Coord.to_string trap));
              List.iter
                (fun q ->
                  if not (qubit_ok q) then
                    emit
                      (F.make ~pass ~kind:"bad-operand" ~loc:(F.Command idx) F.Error
                         "gate #%d involves unknown qubit q%d" instr_id q)
                  else begin
                    if not (Coord.equal pos.(q) trap) then
                      emit
                        (F.make ~pass ~kind:"absent-operand" ~loc:(F.Command idx) F.Error
                           "gate #%d starts at %s but q%d is at %s" instr_id
                           (Coord.to_string trap) q (Coord.to_string pos.(q)));
                    if time < free_at.(q) -. eps then
                      emit
                        (F.make ~pass ~kind:"overlap" ~loc:(F.Command idx) F.Error
                           "gate #%d starts at %.2f us while q%d is busy until %.2f us" instr_id
                           time q free_at.(q));
                    (* the ion is held in the trap for the gate *)
                    free_at.(q) <- time +. Router.Timing.gate_delay timing instr
                  end)
                qubits;
              if started.(instr_id) = None then started.(instr_id) <- Some time;
              Hashtbl.replace open_gates instr_id (time, trap)
            end
          end
      | Micro.Gate_end { instr_id; trap; qubits; time } ->
          makespan := Float.max !makespan time;
          if instr_id < 0 || instr_id >= nnodes then
            emit
              (F.make ~pass ~kind:"unknown-instruction" ~loc:(F.Command idx) F.Error
                 "gate event references instruction #%d, outside the program" instr_id)
          else (
            match Hashtbl.find_opt open_gates instr_id with
            | None ->
                emit
                  (F.make ~pass ~kind:"gate-pairing" ~loc:(F.Command idx) F.Error
                     "gate #%d ends without having started" instr_id)
            | Some (t0, strap) ->
                Hashtbl.remove open_gates instr_id;
                incr gates;
                if not (Coord.equal strap trap) then
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
                ended.(instr_id) <- Some time;
                List.iter
                  (fun q -> if qubit_ok q then free_at.(q) <- Float.max free_at.(q) time)
                  qubits))
    trace;
  (* --- dangling starts and completeness --- *)
  Hashtbl.iter
    (fun instr_id _ ->
      emit
        (F.make ~pass ~kind:"gate-pairing" ~loc:(F.Instruction instr_id) F.Error
           "gate #%d starts but never ends" instr_id))
    open_gates;
  let missing = ref 0 and first_missing = ref (-1) in
  for i = 0 to nnodes - 1 do
    if Qasm.Instr.is_gate (Qasm.Dag.node dag i).Qasm.Dag.instr && exec.(i) = 0 then begin
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
    match started.(i) with
    | None -> ()
    | Some tstart ->
        List.iter
          (fun p ->
            if Qasm.Instr.is_gate (Qasm.Dag.node dag p).Qasm.Dag.instr then
              match ended.(p) with
              | Some tend ->
                  if tstart < tend -. eps then
                    emit
                      (F.make ~pass ~kind:"dependency" ~loc:(F.Instruction i) F.Error
                         "gate #%d starts at %.2f us before its dependency #%d finishes at %.2f us"
                         i tstart p tend)
              | None ->
                  emit
                    (F.make ~pass ~kind:"dependency" ~loc:(F.Instruction i) F.Error
                       "gate #%d executes but its dependency #%d never finishes" i p))
          (Qasm.Dag.node dag i).Qasm.Dag.preds
  done;
  (* --- capacity sweep: merge each qubit's contiguous visits to a
         resource into occupancy intervals, then level-check with exits
         sorting before entries at equal times (half-open semantics) --- *)
  let by_res : (resource, (float * float) list ref) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (_, res) ivals ->
      let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) !ivals in
      let merged =
        List.fold_left
          (fun acc (lo, hi) ->
            match acc with
            | (plo, phi) :: tl when lo <= phi +. eps -> (plo, Float.max phi hi) :: tl
            | _ -> (lo, hi) :: acc)
          [] sorted
      in
      let l =
        match Hashtbl.find_opt by_res res with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.add by_res res l;
            l
      in
      l := List.rev_append merged !l)
    touches;
  Hashtbl.iter
    (fun res ivals ->
      let cap, name, pos_of =
        match res with
        | Seg s ->
            ( channel_capacity,
              "segment",
              (Fabric.Component.segments comp).(s).Fabric.Component.cells.(0) )
        | Junc j ->
            (junction_capacity, "junction", (Fabric.Component.junctions comp).(j).Fabric.Component.jpos)
      in
      let events =
        List.concat_map (fun (lo, hi) -> [ (lo, 1); (hi, -1) ]) !ivals
        |> List.sort (fun (ta, da) (tb, db) ->
               match Float.compare ta tb with 0 -> Int.compare da db | c -> c)
      in
      let level = ref 0 and worst = ref 0 and worst_at = ref 0.0 in
      List.iter
        (fun (t, d) ->
          level := !level + d;
          if !level > !worst then begin
            worst := !level;
            worst_at := t
          end)
        events;
      if !worst > cap then
        emit
          (F.make ~pass ~kind:"capacity" ~loc:(F.Cell pos_of)
             ~extra:[ ("level", Json.Int !worst); ("time_us", Json.Float !worst_at) ]
             F.Error "%d ions occupy the %s at %s at %.2f us, capacity is %d" !worst name
             (Coord.to_string pos_of) !worst_at cap))
    by_res;
  (* --- accounting --- *)
  if Float.abs (claimed_latency -. !makespan) > 1e-6 then
    emit
      (F.make ~pass ~kind:"latency-mismatch"
         ~extra:[ ("claimed", Json.Float claimed_latency); ("replayed", Json.Float !makespan) ]
         F.Error "claimed latency %.4f us, replayed makespan %.4f us" claimed_latency !makespan);
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
            else if not (Coord.equal pos.(q) traps.(tid).Fabric.Component.tpos) then
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
  if !nfind > max_reported then
    emit
      (F.make ~pass ~kind:"truncated" F.Warning "%d further finding(s) suppressed"
         (!nfind - max_reported));
  let findings = F.sort !findings in
  {
    valid = F.is_clean findings;
    claimed_latency;
    replayed_makespan = !makespan;
    commands;
    moves = !moves;
    turns = !turns;
    gates = !gates;
    digest = digest_trace trace;
    lower_bound = Option.map fst lower_bound;
    bound_kind = Option.map snd lower_bound;
    findings;
  }

let of_solution ?policy ctx (sol : Qspr.Mapper.solution) =
  let config = Qspr.Mapper.config ctx in
  let policy = Option.value ~default:config.Qspr.Config.qspr_policy policy in
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
