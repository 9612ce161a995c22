(* The instruction stream is flattened into parallel arrays so the
   estimation loop touches only ints and floats: kind 0 = no-op
   (declaration), 1 = one-qubit gate, 2 = two-qubit gate. *)
type t = {
  dist : Distance.t;
  timing : Router.Timing.t;
  nq : int;
  kind : int array;
  qa : int array;  (* operand / control *)
  qb : int array;  (* target, two-qubit gates only *)
  prio : float array;  (* the engine's issue priorities (Priority.qspr_default) *)
  stretch : float array;  (* congestion multiplier on travel, per instruction *)
  succs : int array array;
  indeg0 : int array;  (* initial in-degrees, copied into scratch per call *)
  tx : int array;  (* trap coordinates, for the engine's midpoint trap choice *)
  ty : int array;
}

(* Per-domain estimation scratch, shared by every model.  A Domain.DLS slot
   is process-lifetime — a per-model key would pin one scratch per model
   ever built on each domain that estimated with it, which in the service
   (one model per admitted request) compounds into an unbounded leak.  One
   module-level key bounds retention to the largest model each domain has
   seen; [ensure_scratch] grows the arrays monotonically to fit. *)
type scratch = {
  mutable engaged : bool array;  (* per qubit: reserved by an in-flight instruction *)
  mutable pos : int array;  (* per qubit: current (or inbound) trap *)
  mutable occ : int array;  (* per trap: assigned ions — availability mirror *)
  mutable indeg : int array;
  mutable status : int array;  (* per node: 0 waiting, 1 ready, 2 issued/done *)
  mutable ready : int array;  (* ids with status 1, maintained as a prefix *)
  mutable heap_time : float array;  (* binary min-heap of instruction completions *)
  mutable heap_id : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        engaged = [||];
        pos = [||];
        occ = [||];
        indeg = [||];
        status = [||];
        ready = [||];
        heap_time = [||];
        heap_id = [||];
      })

let ensure_scratch s ~nq ~ntraps ~n =
  if Array.length s.engaged < nq then begin
    s.engaged <- Array.make nq false;
    s.pos <- Array.make nq 0
  end;
  if Array.length s.occ < ntraps then s.occ <- Array.make ntraps 0;
  if Array.length s.indeg < n then begin
    s.indeg <- Array.make n 0;
    s.status <- Array.make n 0;
    s.ready <- Array.make n 0
  end;
  if Array.length s.heap_time < n + 1 then begin
    s.heap_time <- Array.make (n + 1) 0.0;
    s.heap_id <- Array.make (n + 1) 0
  end

let distance t = t.dist
let num_qubits t = t.nq

(* Read-only window onto the flattened instruction stream for the delta
   model: the arrays are the model's own (no copy), so holders must treat
   them as frozen. *)
type view = {
  v_dist : Distance.t;
  v_timing : Router.Timing.t;
  v_nq : int;
  v_kind : int array;
  v_qa : int array;
  v_qb : int array;
  v_stretch : float array;
  v_succs : int array array;
}

let view t =
  {
    v_dist = t.dist;
    v_timing = t.timing;
    v_nq = t.nq;
    v_kind = t.kind;
    v_qa = t.qa;
    v_qb = t.qb;
    v_stretch = t.stretch;
    v_succs = t.succs;
  }

(* The calibrated congestion stretch: a two-qubit gate's travel grows by
   [congestion_alpha] for every two-qubit gate beyond [congestion_threshold]
   in its QIDG level. *)
let congestion_alpha = 0.01
let congestion_threshold = 2

let create ~graph ~timing ?distance dag =
  let turn_cost = Router.Timing.turn_cost_in_moves timing in
  let dist =
    match distance with
    | Some d ->
        if Distance.turn_cost d <> turn_cost then
          invalid_arg "Estimator.Model.create: prebuilt distance tables use a different turn cost";
        if Distance.num_traps d <> Array.length (Fabric.Component.traps (Fabric.Graph.component graph))
        then invalid_arg "Estimator.Model.create: prebuilt distance tables are for a different fabric";
        d
    | None -> Distance.build graph ~turn_cost
  in
  let nq = Qasm.Program.num_qubits (Qasm.Dag.program dag) in
  let n = Qasm.Dag.num_nodes dag in
  let kind = Array.make n 0 and qa = Array.make n 0 and qb = Array.make n 0 in
  (* Gate levels — 1 + max level over predecessors, declarations at 0 — feed
     the per-level two-qubit census behind the congestion stretch.  Node ids
     are already topological, so one forward pass suffices. *)
  let level = Array.make n 0 in
  for i = 0 to n - 1 do
    let node = Qasm.Dag.node dag i in
    (match node.Qasm.Dag.instr with
    | Qasm.Instr.Qubit_decl _ -> ()
    | Gate1 (_, q) ->
        kind.(i) <- 1;
        qa.(i) <- q
    | Gate2 (_, c, tgt) ->
        kind.(i) <- 2;
        qa.(i) <- c;
        qb.(i) <- tgt);
    if kind.(i) <> 0 then
      level.(i) <-
        List.fold_left (fun acc p -> Int.max acc (level.(p) + 1)) 1 node.Qasm.Dag.preds
  done;
  let max_level = Array.fold_left Int.max 0 level in
  let two_qubit_per_level = Array.make (max_level + 1) 0 in
  for i = 0 to n - 1 do
    if kind.(i) = 2 then
      two_qubit_per_level.(level.(i)) <- two_qubit_per_level.(level.(i)) + 1
  done;
  let stretch =
    Array.init n (fun i ->
        if kind.(i) <> 2 then 1.0
        else
          let extra = two_qubit_per_level.(level.(i)) - congestion_threshold in
          1.0 +. (congestion_alpha *. float_of_int (Int.max 0 extra)))
  in
  let prio =
    Scheduler.Priority.compute Scheduler.Priority.qspr_default
      ~delay:(Router.Timing.gate_delay timing) dag
  in
  let succs = Array.init n (fun i -> Array.of_list (Qasm.Dag.node dag i).Qasm.Dag.succs) in
  let indeg0 = Array.init n (fun i -> List.length (Qasm.Dag.node dag i).Qasm.Dag.preds) in
  let traps = Fabric.Component.traps (Fabric.Graph.component graph) in
  let tx = Array.map (fun tr -> tr.Fabric.Component.tpos.Ion_util.Coord.x) traps in
  let ty = Array.map (fun tr -> tr.Fabric.Component.tpos.Ion_util.Coord.y) traps in
  { dist; timing; nq; kind; qa; qb; prio; stretch; succs; indeg0; tx; ty }

(* The engine's two-qubit trap choice (Engine.trap_candidates): nearest trap
   by Manhattan distance to the midpoint of the operands' traps, restricted
   to traps whose every occupant is an instruction operand; ties keep the
   lowest trap id (Component.nearest_traps sorts by (distance, tid)).  The
   caller has already removed the two operands from [occ], so availability
   is simply emptiness.  Falls back to the static min-makespan meeting trap
   when every trap is blocked (the engine would stall and retry; the
   estimator just pays the move). *)
let choose_meet t occ a b =
  let mx = (t.tx.(a) + t.tx.(b)) / 2 and my = (t.ty.(a) + t.ty.(b)) / 2 in
  let best = ref (-1) and best_d = ref max_int in
  for m = 0 to Array.length t.tx - 1 do
    if occ.(m) = 0 then begin
      let d = abs (t.tx.(m) - mx) + abs (t.ty.(m) - my) in
      if d < !best_d then begin
        best := m;
        best_d := d
      end
    end
  done;
  if !best < 0 then Distance.meet t.dist a b else !best

(* Event-driven mirror of [Simulator.Engine.run] with the router replaced by
   the precomputed distance tables: instructions issue eagerly in priority
   order whenever their operands are disengaged, both operands of a
   two-qubit gate depart at issue time for the midpoint-nearest available
   trap, and completions free the operands and ready the successors.  What
   the mirror drops is congestion — channel acquisition, stalls and detours
   — whose average effect the per-instruction [stretch] factor recovers.
   Every tie is broken by instruction id, so the walk is a pure function of
   the model and the placement. *)
let estimate t placement =
  if Array.length placement <> t.nq then
    invalid_arg "Estimator.Model.estimate: placement arity does not match the program";
  let ntraps = Distance.num_traps t.dist in
  Array.iter
    (fun p ->
      if p < 0 || p >= ntraps then invalid_arg "Estimator.Model.estimate: trap id out of range")
    placement;
  let n = Array.length t.kind in
  let s = Domain.DLS.get scratch_key in
  ensure_scratch s ~nq:t.nq ~ntraps ~n;
  let { engaged; pos; occ; indeg; status; ready; heap_time; heap_id } = s in
  Array.fill engaged 0 t.nq false;
  Array.blit placement 0 pos 0 t.nq;
  Array.fill occ 0 (Array.length occ) 0;
  Array.iter (fun p -> occ.(p) <- occ.(p) + 1) placement;
  Array.blit t.indeg0 0 indeg 0 n;
  let nready = ref 0 in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then begin
      status.(i) <- 1;
      ready.(!nready) <- i;
      incr nready
    end
    else status.(i) <- 0
  done;
  (* binary min-heap of (completion time, id); pop order among equal times
     is irrelevant because events are drained in batches per timestamp *)
  let nheap = ref 0 in
  let heap_push time id =
    incr nheap;
    let k = ref !nheap in
    while !k > 1 && heap_time.(!k / 2) > time do
      heap_time.(!k) <- heap_time.(!k / 2);
      heap_id.(!k) <- heap_id.(!k / 2);
      k := !k / 2
    done;
    heap_time.(!k) <- time;
    heap_id.(!k) <- id
  in
  let heap_pop () =
    let id = heap_id.(1) in
    let time = heap_time.(!nheap) and tid = heap_id.(!nheap) in
    decr nheap;
    let k = ref 1 in
    let continue = ref (!nheap > 1) in
    while !continue do
      let l = 2 * !k in
      let c =
        if l > !nheap then 0
        else if l + 1 <= !nheap && heap_time.(l + 1) < heap_time.(l) then l + 1
        else l
      in
      if c = 0 || heap_time.(c) >= time then continue := false
      else begin
        heap_time.(!k) <- heap_time.(c);
        heap_id.(!k) <- heap_id.(c);
        k := c
      end
    done;
    if !nheap > 0 then begin
      heap_time.(!k) <- time;
      heap_id.(!k) <- tid
    end;
    id
  in
  let clock = ref 0.0 and latency = ref 0.0 in
  let tm = t.timing in
  let ready_succs i =
    Array.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 && status.(s) = 0 then begin
          status.(s) <- 1;
          ready.(!nready) <- s;
          incr nready
        end)
      t.succs.(i)
  in
  let complete i =
    (match t.kind.(i) with
    | 1 -> engaged.(t.qa.(i)) <- false
    | 2 ->
        engaged.(t.qa.(i)) <- false;
        engaged.(t.qb.(i)) <- false
    | _ -> ());
    ready_succs i
  in
  (* issue everything issuable at the current clock, highest priority first;
     declarations complete immediately and can ready further instructions,
     so iterate until a pass makes no progress — Engine.issue_round *)
  let issue_round () =
    let again = ref true in
    while !again do
      again := false;
      (* compact away issued entries, then insertion-sort the prefix by
         (priority desc, id asc) — Ready_set.ready's order *)
      let w = ref 0 in
      for r = 0 to !nready - 1 do
        if status.(ready.(r)) = 1 then begin
          ready.(!w) <- ready.(r);
          incr w
        end
      done;
      nready := !w;
      for r = 1 to !nready - 1 do
        let id = ready.(r) in
        let p = t.prio.(id) in
        let j = ref r in
        while
          !j > 0
          && (t.prio.(ready.(!j - 1)) < p
             || (t.prio.(ready.(!j - 1)) = p && ready.(!j - 1) > id))
        do
          ready.(!j) <- ready.(!j - 1);
          decr j
        done;
        ready.(!j) <- id
      done;
      let round = !nready in
      for r = 0 to round - 1 do
        let i = ready.(r) in
        match t.kind.(i) with
        | 0 ->
            status.(i) <- 2;
            ready_succs i;
            again := true
        | 1 ->
            let q = t.qa.(i) in
            if not engaged.(q) then begin
              status.(i) <- 2;
              engaged.(q) <- true;
              let finish = !clock +. tm.Router.Timing.t_gate1 in
              if finish > !latency then latency := finish;
              heap_push finish i;
              again := true
            end
        | _ ->
            let c = t.qa.(i) and tgt = t.qb.(i) in
            if not (engaged.(c) || engaged.(tgt)) then begin
              status.(i) <- 2;
              engaged.(c) <- true;
              engaged.(tgt) <- true;
              let a = pos.(c) and b = pos.(tgt) in
              let arrive =
                if a = b then !clock
                else begin
                  occ.(a) <- occ.(a) - 1;
                  occ.(b) <- occ.(b) - 1;
                  let m = choose_meet t occ a b in
                  occ.(m) <- occ.(m) + 2;
                  pos.(c) <- m;
                  pos.(tgt) <- m;
                  let scale = tm.Router.Timing.t_move *. t.stretch.(i) in
                  !clock
                  +. (Float.max (Distance.between t.dist a m) (Distance.between t.dist b m)
                     *. scale)
                end
              in
              let finish = arrive +. tm.Router.Timing.t_gate2 in
              if finish > !latency then latency := finish;
              heap_push finish i;
              again := true
            end
      done
    done
  in
  issue_round ();
  while !nheap > 0 do
    let time = heap_time.(1) in
    clock := time;
    (* drain every completion at this timestamp before re-issuing *)
    while !nheap > 0 && heap_time.(1) <= time +. 1e-9 do
      complete (heap_pop ())
    done;
    issue_round ()
  done;
  !latency
