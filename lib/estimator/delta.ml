(* Incremental longest-path latency model over the QIDG.

   [Model.estimate] replays the whole event-driven mirror per candidate;
   this module trades its occupancy-aware trap choice for the static
   min-makespan meeting trap ([Distance.meet]) and serialized operands, in
   exchange for an O(affected cone) [apply_swap]/[apply_move].  Gates are
   chained per qubit in id order (the DAG omits edges between gates that
   share only a read operand, but trapped ions engage their qubit either
   way), so a gate's start time is the max completion over its QIDG
   predecessors and the previous gates touching each operand, and its
   operands' positions flow along those chains.  Every edge points from a
   lower id to a higher one, so a min-id heap recomputes each affected gate
   exactly once per transaction and a single forward pass is a full
   evaluation.  The incremental update is bit-exact against that full
   evaluation: recomputation applies the same float expressions to the same
   inputs, and [resync] exists as a belt-and-suspenders drift bound. *)

type t = {
  dist : Distance.t;
  dtbl : float array;  (* Distance's raw row-major distance table *)
  mtbl : int array;  (* Distance's raw row-major meeting-trap table *)
  ntr : int;  (* traps — the tables' row stride *)
  t_gate1 : float;
  t_gate2 : float;
  t_move : float;
  nq : int;
  n : int;
  kind : int array;
  qa : int array;
  qb : int array;
  stretch : float array;
  succs : int array array;
  preds : int array array;  (* QIDG predecessors, inverse of [succs] *)
  (* per-qubit chains: previous/next gate touching the [qa]/[qb] operand *)
  cpa : int array;
  cpb : int array;
  cna : int array;
  cnb : int array;
  first_gate : int array;  (* per qubit: first gate touching it, -1 if none *)
  sinks : int array;  (* gates with no chain successor on any operand *)
  tail : float array;  (* gate delays on the longest path from a gate to a sink *)
  (* mutable evaluation state *)
  comp : float array;  (* completion time per node (0 for declarations) *)
  outa : int array;  (* trap of [qa] after gate i completes *)
  outb : int array;  (* trap of [qb] after gate i completes (2-qubit only) *)
  pos : int array;  (* current placement: qubit -> initial trap *)
  occ_by : int array;  (* trap -> occupying qubit, -1 when free *)
  mutable latency : float;
  (* open-transaction journal: each affected node at most once *)
  mutable active : bool;
  mutable jn : int;
  j_id : int array;
  j_comp : float array;
  j_outa : int array;
  j_outb : int array;
  mutable jq : int;  (* journaled qubit moves (at most 2 per transaction) *)
  j_qubit : int array;
  j_trap : int array;
  mutable old_latency : float;
  mutable aborted : bool;  (* the open transaction was cut off by its cutoff *)
  (* propagation frontier: dirty ids processed by an increasing cursor *)
  dirty : bool array;
  mutable ndirty : int;
  mutable lo : int;  (* lower bound on the smallest dirty id *)
}

let num_qubits t = t.nq
let num_traps t = Distance.num_traps t.dist
let latency t = t.latency
let trap_of t q = t.pos.(q)
let occupant t trap = t.occ_by.(trap)
let placement t = Array.copy t.pos
let in_transaction t = t.active

(* Recompute node [i]'s completion and out-positions from its (already
   final) predecessors.  The bit-exactness of the incremental path rests on
   full evaluation and cone recomputation both being exactly this code.
   This is the innermost loop of million-move annealing, so it reads the
   raw distance tables and skips bounds checks — every index is an
   internally maintained id below [n] or [ntr]. *)
let recompute t i =
  let comp = t.comp and outa = t.outa and outb = t.outb and qa = t.qa in
  let ready = ref 0.0 in
  let ps = Array.unsafe_get t.preds i in
  for k = 0 to Array.length ps - 1 do
    let c = Array.unsafe_get comp (Array.unsafe_get ps k) in
    if c > !ready then ready := c
  done;
  let cpa = Array.unsafe_get t.cpa i in
  if cpa >= 0 then begin
    let c = Array.unsafe_get comp cpa in
    if c > !ready then ready := c
  end;
  let cpb = Array.unsafe_get t.cpb i in
  if cpb >= 0 then begin
    let c = Array.unsafe_get comp cpb in
    if c > !ready then ready := c
  end;
  (* an operand's input trap is the chain predecessor's out-position for
     that qubit, or the placement when the operand is untouched so far —
     spelled out at each use to keep this allocation-free *)
  let pos = t.pos in
  match Array.unsafe_get t.kind i with
  | 1 ->
      let a = Array.unsafe_get qa i in
      let ia =
        if cpa < 0 then Array.unsafe_get pos a
        else if Array.unsafe_get qa cpa = a then Array.unsafe_get outa cpa
        else Array.unsafe_get outb cpa
      in
      Array.unsafe_set outa i ia;
      Array.unsafe_set comp i (!ready +. t.t_gate1)
  | 2 ->
      let a = Array.unsafe_get qa i and b = Array.unsafe_get t.qb i in
      let ia =
        if cpa < 0 then Array.unsafe_get pos a
        else if Array.unsafe_get qa cpa = a then Array.unsafe_get outa cpa
        else Array.unsafe_get outb cpa
      and ib =
        if cpb < 0 then Array.unsafe_get pos b
        else if Array.unsafe_get qa cpb = b then Array.unsafe_get outa cpb
        else Array.unsafe_get outb cpb
      in
      if ia = ib then begin
        Array.unsafe_set outa i ia;
        Array.unsafe_set outb i ia;
        Array.unsafe_set comp i (!ready +. t.t_gate2)
      end
      else begin
        let row = ia * t.ntr in
        let m = Array.unsafe_get t.mtbl (row + ib) in
        Array.unsafe_set outa i m;
        Array.unsafe_set outb i m;
        let da = Array.unsafe_get t.dtbl (row + m)
        and db = Array.unsafe_get t.dtbl ((ib * t.ntr) + m) in
        let travel = Float.max da db *. t.t_move *. Array.unsafe_get t.stretch i in
        Array.unsafe_set comp i (!ready +. travel +. t.t_gate2)
      end
  | _ -> Array.unsafe_set comp i 0.0

(* Completion is monotone along every edge (gate delays are positive), so
   the makespan is attained at a chain sink. *)
let refresh_latency t =
  let sinks = t.sinks and comp = t.comp in
  let lat = ref 0.0 in
  for k = 0 to Array.length sinks - 1 do
    let c = Array.unsafe_get comp (Array.unsafe_get sinks k) in
    if c > !lat then lat := c
  done;
  t.latency <- !lat

(* Full forward pass in id order — every edge (DAG and chain) points from a
   lower id to a higher one, so one sweep reaches the fixpoint. *)
let eval_all t =
  for i = 0 to t.n - 1 do
    recompute t i
  done;
  refresh_latency t

let create model placement =
  let v = Model.view model in
  let n = Array.length v.Model.v_kind in
  let nq = v.Model.v_nq in
  if Array.length placement <> nq then
    invalid_arg "Estimator.Delta.create: placement arity does not match the program";
  let ntraps = Distance.num_traps v.Model.v_dist in
  Array.iter
    (fun p ->
      if p < 0 || p >= ntraps then invalid_arg "Estimator.Delta.create: trap id out of range")
    placement;
  let occ_by = Array.make ntraps (-1) in
  Array.iteri
    (fun q p ->
      if occ_by.(p) >= 0 then invalid_arg "Estimator.Delta.create: duplicate trap assignment";
      occ_by.(p) <- q)
    placement;
  let kind = v.Model.v_kind and qa = v.Model.v_qa and qb = v.Model.v_qb in
  let succs = v.Model.v_succs in
  let preds = Array.make n [||] in
  let npred = Array.make n 0 in
  Array.iter (Array.iter (fun s -> npred.(s) <- npred.(s) + 1)) succs;
  Array.iteri (fun i c -> preds.(i) <- Array.make c 0; npred.(i) <- 0) npred;
  Array.iteri
    (fun i ss ->
      Array.iter
        (fun s ->
          preds.(s).(npred.(s)) <- i;
          npred.(s) <- npred.(s) + 1)
        ss)
    succs;
  let cpa = Array.make n (-1)
  and cpb = Array.make n (-1)
  and cna = Array.make n (-1)
  and cnb = Array.make n (-1) in
  let first_gate = Array.make nq (-1) in
  let last = Array.make nq (-1) in
  let link q i =
    (match last.(q) with
    | -1 -> first_gate.(q) <- i
    | p -> if qa.(p) = q then cna.(p) <- i else cnb.(p) <- i);
    last.(q) <- i
  in
  for i = 0 to n - 1 do
    match kind.(i) with
    | 1 ->
        cpa.(i) <- last.(qa.(i));
        link qa.(i) i
    | 2 ->
        cpa.(i) <- last.(qa.(i));
        link qa.(i) i;
        cpb.(i) <- last.(qb.(i));
        link qb.(i) i
    | _ -> ()
  done;
  let sinks =
    Array.of_seq
      (Seq.filter
         (fun i -> kind.(i) <> 0 && cna.(i) < 0 && (kind.(i) <> 2 || cnb.(i) < 0))
         (Seq.init n Fun.id))
  in
  let timing = v.Model.v_timing in
  let t_gate1 = timing.Router.Timing.t_gate1 and t_gate2 = timing.Router.Timing.t_gate2 in
  (* [tail.(i)]: the gate delays alone along the longest DAG/chain path from
     gate [i] to a sink, by one reverse sweep (every edge points to a higher
     id).  Travel is never negative, so [comp.(i) +. tail.(i)] never exceeds
     the makespan beyond the rounding of the two sums. *)
  let tail = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let via s =
      if s >= 0 && kind.(s) <> 0 then begin
        let c = tail.(s) +. if kind.(s) = 1 then t_gate1 else t_gate2 in
        if c > tail.(i) then tail.(i) <- c
      end
    in
    Array.iter via succs.(i);
    via cna.(i);
    via cnb.(i)
  done;
  let dtbl, mtbl = Distance.tables v.Model.v_dist in
  let t =
    {
      dist = v.Model.v_dist;
      dtbl;
      mtbl;
      ntr = ntraps;
      t_gate1;
      t_gate2;
      t_move = timing.Router.Timing.t_move;
      nq;
      n;
      kind;
      qa;
      qb;
      stretch = v.Model.v_stretch;
      succs;
      preds;
      cpa;
      cpb;
      cna;
      cnb;
      first_gate;
      sinks;
      tail;
      comp = Array.make n 0.0;
      outa = Array.make n (-1);
      outb = Array.make n (-1);
      pos = Array.copy placement;
      occ_by;
      latency = 0.0;
      active = false;
      jn = 0;
      j_id = Array.make n 0;
      j_comp = Array.make n 0.0;
      j_outa = Array.make n 0;
      j_outb = Array.make n 0;
      jq = 0;
      j_qubit = Array.make 2 0;
      j_trap = Array.make 2 0;
      old_latency = 0.0;
      aborted = false;
      dirty = Array.make n false;
      ndirty = 0;
      lo = 0;
    }
  in
  eval_all t;
  t

let eval model placement =
  let t = create model placement in
  t.latency

(* ------------------------------------------------------------ transactions *)

let mark_dirty t i =
  if not t.dirty.(i) then begin
    t.dirty.(i) <- true;
    t.ndirty <- t.ndirty + 1;
    if i < t.lo then t.lo <- i
  end

(* Relative slack on the cut-off limits.  [comp +. tail] and the sink
   completion it bounds add the same gate delays in a different order, so
   the bound may overshoot the true chain sum by a few ULPs per gate on the
   path; 1e-9 covers paths of about a million gates. *)
let cutoff_slack = 1e-9

(* Abort the open transaction: clear the dirty frontier from id [j] on
   (everything below it is already processed), so {!propagate} ends. *)
let abort_from t j =
  t.aborted <- true;
  let dirty = t.dirty and j = ref j in
  while t.ndirty > 0 do
    if Array.unsafe_get dirty !j then begin
      Array.unsafe_set dirty !j false;
      t.ndirty <- t.ndirty - 1
    end;
    incr j
  done

(* Sweep an increasing cursor over the dirty frontier: every edge (DAG and
   chain) points from a lower id to a higher one, so nodes marked while
   processing id [i] all lie beyond the cursor, each affected gate is
   recomputed exactly once, and its predecessors are final when it is.
   Nodes whose recomputation changes nothing are neither journaled nor
   propagated — the cone stops where the numbers stop moving.

   With a [cutoff], each changed node's [comp +. tail] is a proven lower
   bound on the new makespan.  The first one above [old_latency] (plus
   slack) proves the move uphill and asks [cutoff] for the largest delta
   the caller would still accept; a node above [old_latency +. dmax] (plus
   slack) proves the move rejected, so the sweep stops there, drops the
   rest of the frontier and marks the transaction aborted. *)
let propagate t cutoff =
  let dirty = t.dirty and comp = t.comp and outa = t.outa and outb = t.outb in
  let kind = t.kind and succs = t.succs and cna = t.cna and cnb = t.cnb in
  let j_id = t.j_id and j_comp = t.j_comp and j_outa = t.j_outa and j_outb = t.j_outb in
  let tail = t.tail in
  let limit =
    ref
      (match cutoff with
      | None -> infinity
      | Some _ -> t.old_latency *. (1.0 +. cutoff_slack))
  in
  let uphill = ref false in
  let i = ref t.lo in
  while t.ndirty > 0 do
    if Array.unsafe_get dirty !i then begin
      Array.unsafe_set dirty !i false;
      t.ndirty <- t.ndirty - 1;
      let oc = Array.unsafe_get comp !i
      and oa = Array.unsafe_get outa !i
      and ob = Array.unsafe_get outb !i in
      recompute t !i;
      if
        Array.unsafe_get comp !i <> oc
        || Array.unsafe_get outa !i <> oa
        || Array.unsafe_get outb !i <> ob
      then begin
        let jn = t.jn in
        Array.unsafe_set j_id jn !i;
        Array.unsafe_set j_comp jn oc;
        Array.unsafe_set j_outa jn oa;
        Array.unsafe_set j_outb jn ob;
        t.jn <- jn + 1;
        let bound = Array.unsafe_get comp !i +. Array.unsafe_get tail !i in
        if bound > !limit && not !uphill then begin
          uphill := true;
          match cutoff with
          | Some f -> limit := (t.old_latency +. f ()) *. (1.0 +. cutoff_slack)
          | None -> ()
        end;
        if bound > !limit then abort_from t (!i + 1)
        else begin
          (* nodes marked here are always beyond the cursor, so the [lo]
             bookkeeping of {!mark_dirty} is unnecessary *)
          let ss = Array.unsafe_get succs !i in
          for k = 0 to Array.length ss - 1 do
            let s = Array.unsafe_get ss k in
            if Array.unsafe_get kind s <> 0 && not (Array.unsafe_get dirty s) then begin
              Array.unsafe_set dirty s true;
              t.ndirty <- t.ndirty + 1
            end
          done;
          let na = Array.unsafe_get cna !i in
          if na >= 0 && not (Array.unsafe_get dirty na) then begin
            Array.unsafe_set dirty na true;
            t.ndirty <- t.ndirty + 1
          end;
          let nb = Array.unsafe_get cnb !i in
          if nb >= 0 && not (Array.unsafe_get dirty nb) then begin
            Array.unsafe_set dirty nb true;
            t.ndirty <- t.ndirty + 1
          end
        end
      end
    end;
    incr i
  done;
  t.lo <- t.n

let begin_txn t =
  if t.active then
    invalid_arg "Estimator.Delta: transaction already open (undo or commit it first)";
  t.active <- true;
  t.jn <- 0;
  t.jq <- 0;
  t.lo <- t.n;
  t.aborted <- false;
  t.old_latency <- t.latency

let move_qubit t q trap =
  t.j_qubit.(t.jq) <- q;
  t.j_trap.(t.jq) <- t.pos.(q);
  t.jq <- t.jq + 1;
  t.pos.(q) <- trap

let finish_txn t cutoff =
  propagate t cutoff;
  if t.aborted then infinity
  else begin
    if t.jn > 0 then refresh_latency t;
    t.latency -. t.old_latency
  end

let apply_swap ?cutoff t q1 q2 =
  if q1 < 0 || q1 >= t.nq || q2 < 0 || q2 >= t.nq then
    invalid_arg "Estimator.Delta.apply_swap: qubit out of range";
  if q1 = q2 then invalid_arg "Estimator.Delta.apply_swap: identical qubits";
  begin_txn t;
  let p1 = t.pos.(q1) and p2 = t.pos.(q2) in
  move_qubit t q1 p2;
  move_qubit t q2 p1;
  t.occ_by.(p1) <- q2;
  t.occ_by.(p2) <- q1;
  if t.first_gate.(q1) >= 0 then mark_dirty t t.first_gate.(q1);
  if t.first_gate.(q2) >= 0 then mark_dirty t t.first_gate.(q2);
  finish_txn t cutoff

let apply_move ?cutoff t q trap =
  if q < 0 || q >= t.nq then invalid_arg "Estimator.Delta.apply_move: qubit out of range";
  if trap < 0 || trap >= Distance.num_traps t.dist then
    invalid_arg "Estimator.Delta.apply_move: trap id out of range";
  if t.occ_by.(trap) >= 0 then
    invalid_arg "Estimator.Delta.apply_move: target trap is occupied";
  begin_txn t;
  let from = t.pos.(q) in
  move_qubit t q trap;
  t.occ_by.(from) <- -1;
  t.occ_by.(trap) <- q;
  if t.first_gate.(q) >= 0 then mark_dirty t t.first_gate.(q);
  finish_txn t cutoff

let commit t =
  if not t.active then invalid_arg "Estimator.Delta.commit: no open transaction";
  if t.aborted then invalid_arg "Estimator.Delta.commit: the move was cut off (undo it)";
  t.active <- false

let undo t =
  if not t.active then invalid_arg "Estimator.Delta.undo: no open transaction";
  (* restore qubit positions, then rebuild the touched occupancy entries *)
  for k = t.jq - 1 downto 0 do
    let q = t.j_qubit.(k) in
    t.occ_by.(t.pos.(q)) <- -1;
    t.pos.(q) <- t.j_trap.(k)
  done;
  for k = 0 to t.jq - 1 do
    let q = t.j_qubit.(k) in
    t.occ_by.(t.pos.(q)) <- q
  done;
  (* node state restores in reverse journal order *)
  for k = t.jn - 1 downto 0 do
    let i = t.j_id.(k) in
    t.comp.(i) <- t.j_comp.(k);
    t.outa.(i) <- t.j_outa.(k);
    t.outb.(i) <- t.j_outb.(k)
  done;
  t.jq <- 0;
  t.jn <- 0;
  t.latency <- t.old_latency;
  t.aborted <- false;
  t.active <- false

(* Periodic full re-estimate bounding drift.  The incremental path is
   bit-exact against [eval_all] by construction, so this is expected to be
   a no-op; it returns the largest absolute completion-time correction it
   had to make so callers (and tests) can observe the drift. *)
let resync t =
  if t.active then invalid_arg "Estimator.Delta.resync: transaction open";
  let before = Array.copy t.comp in
  eval_all t;
  let drift = ref 0.0 in
  for i = 0 to t.n - 1 do
    let d = Float.abs (t.comp.(i) -. before.(i)) in
    if d > !drift then drift := d
  done;
  !drift
