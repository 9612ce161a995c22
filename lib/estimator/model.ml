(* The instruction stream is flattened into parallel arrays so the
   estimation loop touches only ints and floats: kind 0 = no-op
   (declaration), 1 = one-qubit gate, 2 = two-qubit gate. *)
type t = {
  dist : Distance.t;
  timing : Router.Timing.t;
  dag : Qasm.Dag.t;
  nq : int;
  kind : int array;
  qa : int array;  (* operand / control *)
  qb : int array;  (* target, two-qubit gates only *)
  priorities : float array;  (* the engine's issue priorities, from the caller *)
  stretch : float array;  (* congestion multiplier on travel, per instruction *)
  succs : int array array;
  tx : int array;  (* trap coordinates, for the engine's midpoint trap choice *)
  ty : int array;
}

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

let create ~graph ~timing ?distance ~priorities dag =
  let n = Qasm.Dag.num_nodes dag in
  if Array.length priorities <> n then
    invalid_arg "Estimator.Model.create: priorities length does not match the DAG";
  let turn_cost = Router.Timing.turn_cost_in_moves timing in
  let dist =
    match distance with
    | Some d ->
        if Router.Lower_bound.turn_cost (Distance.store d) <> turn_cost then
          invalid_arg "Estimator.Model.create: prebuilt distance tables use a different turn cost";
        if Distance.num_traps d <> Array.length (Fabric.Component.traps (Fabric.Graph.component graph))
        then invalid_arg "Estimator.Model.create: prebuilt distance tables are for a different fabric";
        d
    | None -> Distance.build graph ~turn_cost
  in
  let nq = Qasm.Program.num_qubits (Qasm.Dag.program dag) in
  let kind = Array.make n 0 and qa = Array.make n 0 and qb = Array.make n 0 in
  for i = 0 to n - 1 do
    match (Qasm.Dag.node dag i).Qasm.Dag.instr with
    | Qasm.Instr.Qubit_decl _ -> ()
    | Gate1 (_, q) ->
        kind.(i) <- 1;
        qa.(i) <- q
    | Gate2 (_, c, tgt) ->
        kind.(i) <- 2;
        qa.(i) <- c;
        qb.(i) <- tgt
  done;
  (* the gate levels feed the per-level two-qubit census behind the
     congestion stretch *)
  let level = Qasm.Dag.gate_levels dag in
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
  let succs = Array.init n (fun i -> Array.of_list (Qasm.Dag.node dag i).Qasm.Dag.succs) in
  let traps = Fabric.Component.traps (Fabric.Graph.component graph) in
  let tx = Array.map (fun tr -> tr.Fabric.Component.tpos.Ion_util.Coord.x) traps in
  let ty = Array.map (fun tr -> tr.Fabric.Component.tpos.Ion_util.Coord.y) traps in
  { dist; timing; dag; nq; kind; qa; qb; priorities; stretch; succs; tx; ty }

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
   the precomputed distance tables, on the engine's own frontier: a
   [Scheduler.Ready_set] over the caller's priorities orders each issue
   round, and completions wait on an [Ion_util.Fheap] keyed by time.
   Instructions issue eagerly in priority order whenever their operands are
   disengaged, both operands of a two-qubit gate depart at issue time for
   the midpoint-nearest available trap, and completions free the operands
   and ready the successors.  What the mirror drops is congestion — channel
   acquisition, stalls and detours — whose average effect the
   per-instruction [stretch] factor recovers.  Every round issues in
   (priority desc, id asc) order, a total order, and completions drain per
   timestamp, so the heap's pop order among equal times cannot matter: the
   walk is a pure function of the model and the placement. *)
let estimate t placement =
  if Array.length placement <> t.nq then
    invalid_arg "Estimator.Model.estimate: placement arity does not match the program";
  let ntraps = Distance.num_traps t.dist in
  Array.iter
    (fun p ->
      if p < 0 || p >= ntraps then invalid_arg "Estimator.Model.estimate: trap id out of range")
    placement;
  let engaged = Array.make t.nq false in  (* per qubit: reserved by an in-flight instruction *)
  let pos = Array.copy placement in  (* per qubit: current (or inbound) trap *)
  let occ = Array.make ntraps 0 in  (* per trap: assigned ions — availability mirror *)
  Array.iter (fun p -> occ.(p) <- occ.(p) + 1) placement;
  let rs = Scheduler.Ready_set.create t.dag ~priorities:t.priorities in
  let events = Ion_util.Fheap.create ~capacity:(Array.length t.kind) () in
  let clock = ref 0.0 and latency = ref 0.0 in
  let tm = t.timing in
  (* record a completion: the engine's manual push (Engine.schedule) *)
  let finish_at finish i =
    if finish > !latency then latency := finish;
    let open Ion_util.Fheap in
    ensure_room events;
    events.prio.(events.size) <- finish;
    events.data.(events.size) <- i;
    events.size <- events.size + 1;
    sift_up events (events.size - 1)
  in
  let complete i =
    (match t.kind.(i) with
    | 1 -> engaged.(t.qa.(i)) <- false
    | 2 ->
        engaged.(t.qa.(i)) <- false;
        engaged.(t.qb.(i)) <- false
    | _ -> ());
    ignore (Scheduler.Ready_set.mark_done rs i)
  in
  (* issue everything issuable at the current clock, highest priority first;
     declarations complete immediately and can ready further instructions,
     so repeat until a round makes no progress — Engine.issue_round *)
  let rec issue_round () =
    let progressed = ref false in
    Scheduler.Ready_set.iter_ready rs (fun i ->
        if Scheduler.Ready_set.is_ready rs i then
          match t.kind.(i) with
          | 0 ->
              ignore (Scheduler.Ready_set.mark_done rs i);
              progressed := true
          | 1 ->
              let q = t.qa.(i) in
              if not engaged.(q) then begin
                Scheduler.Ready_set.mark_issued rs i;
                engaged.(q) <- true;
                finish_at (!clock +. tm.Router.Timing.t_gate1) i;
                progressed := true
              end
          | _ ->
              let c = t.qa.(i) and tgt = t.qb.(i) in
              if not (engaged.(c) || engaged.(tgt)) then begin
                Scheduler.Ready_set.mark_issued rs i;
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
                    +. (Float.max (Distance.between t.dist a m) (Distance.between t.dist b m) *. scale)
                  end
                in
                finish_at (arrive +. tm.Router.Timing.t_gate2) i;
                progressed := true
              end);
    if !progressed then issue_round ()
  in
  issue_round ();
  while not (Ion_util.Fheap.is_empty events) do
    let time = events.Ion_util.Fheap.prio.(0) in
    clock := time;
    (* drain every completion at this timestamp before re-issuing *)
    while
      (not (Ion_util.Fheap.is_empty events)) && events.Ion_util.Fheap.prio.(0) <= time +. 1e-9
    do
      let i = Ion_util.Fheap.top_data events in
      Ion_util.Fheap.drop_min events;
      complete i
    done;
    issue_round ()
  done;
  !latency
