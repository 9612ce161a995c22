module Coord = Ion_util.Coord
module Graph = Fabric.Graph
module Component = Fabric.Component
open Qasm
open Router

type routing_style = Both_move | Dest_pinned

type policy = {
  turn_aware : bool;
  routing : routing_style;
  channel_capacity : int;
  junction_capacity : int;
  trap_candidates : int;
}

let qspr_policy =
  { turn_aware = true; routing = Both_move; channel_capacity = 2; junction_capacity = 2; trap_candidates = 3 }

let quale_policy =
  { turn_aware = false; routing = Dest_pinned; channel_capacity = 1; junction_capacity = 2; trap_candidates = 1 }

type instr_stats = {
  ready_at : float;
  issued_at : float;
  completed_at : float;
  route_moves : int;
  route_turns : int;
}

type result = {
  latency : float;
  trace : Micro.command list;
  final_placement : int array;
  stats : instr_stats array;
  total_congestion_wait : float;
  total_routing_time : float;
  route_searches : int;
  route_cache_hits : int;
}

(* Events are int-packed for the unboxed event queue: bit 0 tags the kind
   (0 = instruction done, 1 = resource exit), the upper bits carry the
   instruction id or the packed resource.  Packing keeps the warm path free
   of per-event variant blocks and boxed priorities — the queue is an
   {!Ion_util.Fheap}, whose binary-heap sifts are deterministic, so pop
   order (ties included) depends only on the push sequence. *)
let ev_instr_done id = id lsl 1
let ev_resource_exit r = (Resource.to_int r lsl 1) lor 1

(* A two-qubit instruction may commit with only one operand routable: the
   other stays *pending* in its trap (reserved, engaged) and is dispatched as
   soon as congestion allows — typically when the first operand's own
   committed channels free up.  Without this staging, capacity-1 fabrics
   deadlock whenever both operands need the same tap segment of the chosen
   trap. *)
type in_flight = {
  target_trap : int;
  operands : int list;
  mutable pending : int list;
  mutable arrivals : float list;
}

type state = {
  graph : Graph.t;
  comp : Component.t;
  timing : Timing.t;
  policy : policy;
  dag : Dag.t;
  ready_set : Scheduler.Ready_set.t;
  congestion : Congestion.t;
  qubit_trap : int option array; (* physical trap; None while traveling *)
  qubit_engaged : bool array; (* reserved by an in-flight instruction *)
  occupants : int list array; (* trap -> qubits assigned (resident or inbound) *)
  flights : (int, in_flight) Hashtbl.t; (* instr id -> flight info *)
  events : Ion_util.Fheap.t; (* int-packed events keyed by time, see above *)
  mutable clock : float;
  trace_buf : Micro.Builder.t; (* per-domain arena; commands materialize once at the end *)
  mutable exit_buf : float array; (* scratch for Path.resource_exits_into *)
  ready_at : float array;
  issued_at : float array;
  completed_at : float array;
  route_moves : int array;
  route_turns : int array;
  mutable emitted_events : int;
  workspace : Router.Workspace.t; (* per-domain scratch for route searches *)
  edge_weights : float array;
      (* the workspace's edge-weight slot, kept equal to [weight] on every
         edge by [congestion] (Congestion.track_weights) for the whole run *)
  route_cache : Route_cache.t option; (* congestion-free path memo; None = uncached *)
  mutable route_searches : int;
  mutable route_cache_hits : int;
}

let policy_turn_cost policy timing = if policy.turn_aware then Timing.turn_cost_in_moves timing else 0.0
let turn_cost st = policy_turn_cost st.policy st.timing

let weight st kind = Congestion.weight st.congestion ~turn_cost:(turn_cost st) kind

let trap_pos st tid = (Component.traps st.comp).(tid).Component.tpos

(* a trap can host the instruction's operands iff every qubit already
   assigned to it is one of those operands — here specialized to the
   two-operand case, closure-free: toplevel recursion over the occupant
   list so the hot issue loop allocates nothing per availability probe *)
let rec avail2 c t = function [] -> true | q :: tl -> (q = c || q = t) && avail2 c t tl

let qubit_trap st q = st.qubit_trap.(q)

(* Warm-path memo for [Component.nearest_traps]: every two-qubit issue
   attempt re-ranks all traps around a midpoint anchor, and the ranking is
   a pure function of the immutable component and the anchor — the same
   few anchors recur across retries, runs and service jobs.  One
   domain-local table, swapped whenever the engine runs on a different
   component; a hit returns the exact list the sort produced, so the memo
   is invisible to trap choice. *)
let nearest_memo : (Component.t * (int, int list) Hashtbl.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let nearest_traps st anchor =
  let slot = Domain.DLS.get nearest_memo in
  let tbl =
    match !slot with
    | Some (c, tbl) when c == st.comp -> tbl
    | _ ->
        let tbl = Hashtbl.create 64 in
        slot := Some (st.comp, tbl);
        tbl
  in
  let key = (anchor.Coord.x lsl 20) lor anchor.Coord.y in
  match Hashtbl.find_opt tbl key with
  | Some ranked -> ranked
  | None ->
      let ranked = Component.nearest_traps st.comp anchor in
      Hashtbl.add tbl key ranked;
      ranked

(* first [n] available traps from the ranking, skipping [skip] (the
   preferred trap, or -1): toplevel recursion, so the only allocation is
   the <= n-element result — the former List.filter materialized the whole
   available set before truncating.  Availability is a pure read, so not
   probing traps past the cut-off is invisible; result order is identical. *)
let rec collect_avail st control target ~skip acc n = function
  | [] -> List.rev acc
  | tid :: tl ->
      if n = 0 then List.rev acc
      else if tid <> skip && avail2 control target st.occupants.(tid) then
        collect_avail st control target ~skip (tid :: acc) (n - 1) tl
      else collect_avail st control target ~skip acc n tl

(* candidate target traps for a two-qubit instruction, best first:
   take k (preferred @ [available traps by distance from the anchor]) *)
let trap_candidates st ~control ~target =
  let ct = match qubit_trap st control with Some t -> t | None -> assert false in
  let tt = match qubit_trap st target with Some t -> t | None -> assert false in
  if ct = tt then [ ct ]
  else
    let anchor =
      match st.policy.routing with
      | Both_move -> Coord.midpoint (trap_pos st ct) (trap_pos st tt)
      | Dest_pinned -> trap_pos st tt
    in
    let preferred =
      match st.policy.routing with
      | Dest_pinned when avail2 control target st.occupants.(tt) -> tt
      | Dest_pinned | Both_move -> -1
    in
    let k = st.policy.trap_candidates in
    if k <= 0 then []
    else if preferred >= 0 then
      preferred :: collect_avail st control target ~skip:preferred [] (k - 1) (nearest_traps st anchor)
    else collect_avail st control target ~skip:(-1) [] k (nearest_traps st anchor)

(* route one qubit from its trap to the target trap under current weights;
   an already-there qubit yields the empty path.  While nothing is in
   flight the live weights equal the base weights and the search is a pure
   function of (turn_cost, src, dst): serve it from the domain's route
   cache when one is armed, or run it and remember the result.  Cached
   entries are the plain-Dijkstra answers (flavor Plain), so a hit replays
   the uncached search bit-for-bit — equal-cost tie-breaking included. *)
let route_qubit st q ~to_trap =
  match qubit_trap st q with
  | None -> None
  | Some from_trap ->
      if from_trap = to_trap then Some (Path.empty (Graph.trap_node st.graph to_trap))
      else
        let src = Graph.trap_node st.graph from_trap and dst = Graph.trap_node st.graph to_trap in
        (* a staged operand whose tap segment its partner's crossing still
           holds would otherwise flood everything reachable before failing;
           both seals are exact, so the skip is bit-identical *)
        if Seal.source_sealed st.graph st.edge_weights ~src ~dst
           || Seal.dest_sealed st.graph st.edge_weights ~src ~dst
        then None
        else begin
          let cache =
            match st.route_cache with
            | Some c when Congestion.base_weights_active st.congestion -> Some c
            | Some _ | None -> None
          in
          let tc = turn_cost st in
          (* uncached search: same run as Dijkstra.shortest_path, but the
             result packs straight out of the workspace predecessors *)
          let search () =
            st.route_searches <- st.route_searches + 1;
            (* the live weights equal the closure's on every edge, and the
               relax loop reads them unboxed — zero words per edge *)
            Dijkstra.run_into ~edge_weights:st.edge_weights st.workspace st.graph ~weight:(weight st) ~src
              ~dst;
            Path.of_workspace st.workspace st.graph ~src ~dst
          in
          match cache with
          | Some c -> (
              match Route_cache.find c Route_cache.Plain ~turn_cost:tc ~src ~dst with
              | Some result ->
                  st.route_cache_hits <- st.route_cache_hits + 1;
                  result
              | None ->
                  let result = search () in
                  Route_cache.store c Route_cache.Plain ~turn_cost:tc ~src ~dst result;
                  result)
          | None -> search ()
        end

let acquire_path st p =
  for i = 0 to Path.num_resources p - 1 do
    Congestion.acquire st.congestion (Path.resource p i)
  done

let release_path st p =
  for i = 0 to Path.num_resources p - 1 do
    Congestion.release st.congestion (Path.resource p i)
  done

let schedule st delay ev =
  st.emitted_events <- st.emitted_events + 1;
  (* manual push — Fheap.add would box the time (see fheap.mli) *)
  let q = st.events in
  Ion_util.Fheap.ensure_room q;
  q.Ion_util.Fheap.prio.(q.Ion_util.Fheap.size) <- st.clock +. delay;
  q.Ion_util.Fheap.data.(q.Ion_util.Fheap.size) <- ev;
  q.Ion_util.Fheap.size <- q.Ion_util.Fheap.size + 1;
  Ion_util.Fheap.sift_up q (q.Ion_util.Fheap.size - 1)

(* lower one routed operand: append its micro-commands to the trace arena,
   schedule its resource exits (offsets into the reusable scratch buffer, in
   first-crossing order — identical event insertion order to the former
   tuple-list walk), and return arrival time *)
let dispatch_qubit st q path =
  let arrival = Micro.Builder.lower_path st.trace_buf st.graph st.timing ~qubit:q ~start:st.clock path in
  let k = Path.num_resources path in
  if Array.length st.exit_buf < k then st.exit_buf <- Array.make (Int.max 64 k) 0.0;
  Path.resource_exits_into st.timing path st.exit_buf;
  for i = 0 to k - 1 do
    schedule st st.exit_buf.(i) (ev_resource_exit (Path.resource path i))
  done;
  arrival

let remove_from_trap st q tid = st.occupants.(tid) <- List.filter (( <> ) q) st.occupants.(tid)

(* dispatch one operand of instruction [id]: leave the old trap, emit the
   movement commands and record the arrival *)
let dispatch_operand st id fl q path =
  (* leaving for the trap the qubit is already assigned to must not disturb
     the occupant list commit_gate2 just wrote *)
  (match st.qubit_trap.(q) with
  | Some old when old <> fl.target_trap -> remove_from_trap st q old
  | Some _ | None -> ());
  st.qubit_trap.(q) <- None;
  let arrival = dispatch_qubit st q path in
  st.route_moves.(id) <- st.route_moves.(id) + Path.moves path;
  st.route_turns.(id) <- st.route_turns.(id) + Path.turns path;
  fl.pending <- List.filter (( <> ) q) fl.pending;
  fl.arrivals <- arrival :: fl.arrivals;
  (* once every operand is en route, the gate firing is fully determined *)
  if fl.pending = [] then begin
    let start = List.fold_left Float.max 0.0 fl.arrivals in
    let finish = start +. st.timing.Timing.t_gate2 in
    let q0, q1 = match fl.operands with [ a; b ] -> (a, b) | [ a ] -> (a, -1) | _ -> assert false in
    Micro.Builder.add_gate_start st.trace_buf ~instr_id:id ~trap:(trap_pos st fl.target_trap) ~q0 ~q1 ~time:start;
    Micro.Builder.add_gate_end st.trace_buf ~instr_id:id ~trap:(trap_pos st fl.target_trap) ~q0 ~q1 ~time:finish;
    schedule st (finish -. st.clock) (ev_instr_done id)
  end

let commit_gate2 st id ~trap ~control ~target ~dispatch_now =
  Scheduler.Ready_set.mark_issued st.ready_set id;
  st.issued_at.(id) <- st.clock;
  st.occupants.(trap) <- [ control; target ];
  st.qubit_engaged.(control) <- true;
  st.qubit_engaged.(target) <- true;
  let fl = { target_trap = trap; operands = [ control; target ]; pending = [ control; target ]; arrivals = [] } in
  Hashtbl.replace st.flights id fl;
  List.iter (fun (q, path) -> dispatch_operand st id fl q path) dispatch_now

(* attempt to issue a two-qubit instruction; true on success *)
let try_issue_gate2 st id control target =
  if st.qubit_engaged.(control) || st.qubit_engaged.(target) then false
    (* operand busy: stays in the ready set *)
  else begin
    let candidates = trap_candidates st ~control ~target in
    (* pass 1: both operands routable now (source routed first, destination
       under the source's committed congestion) *)
    let rec attempt_full = function
      | [] -> false
      | trap :: rest -> (
          match route_qubit st control ~to_trap:trap with
          | None -> attempt_full rest
          | Some p_control -> (
              acquire_path st p_control;
              match route_qubit st target ~to_trap:trap with
              | None ->
                  release_path st p_control;
                  attempt_full rest
              | Some p_target ->
                  acquire_path st p_target;
                  commit_gate2 st id ~trap ~control ~target
                    ~dispatch_now:[ (control, p_control); (target, p_target) ];
                  true))
    in
    (* pass 2: only one operand can move yet — commit it, stage the other *)
    let rec attempt_partial = function
      | [] -> false
      | trap :: rest -> (
          match route_qubit st control ~to_trap:trap with
          | Some p_control ->
              acquire_path st p_control;
              commit_gate2 st id ~trap ~control ~target ~dispatch_now:[ (control, p_control) ];
              true
          | None -> (
              match route_qubit st target ~to_trap:trap with
              | Some p_target ->
                  acquire_path st p_target;
                  commit_gate2 st id ~trap ~control ~target ~dispatch_now:[ (target, p_target) ];
                  true
              | None -> attempt_partial rest))
    in
    let r1 = attempt_full candidates in
    if r1 then true
    else begin
      let r2 = attempt_partial candidates in
      if r2 then true
      else begin
        Scheduler.Ready_set.defer st.ready_set id;
        false
      end
    end
  end

(* retry the staged operands of in-flight instructions *)
let dispatch_pending st =
  Hashtbl.iter
    (fun id fl ->
      List.iter
        (fun q ->
          match route_qubit st q ~to_trap:fl.target_trap with
          | Some path ->
              acquire_path st path;
              dispatch_operand st id fl q path
          | None -> ())
        fl.pending)
    st.flights

let try_issue_gate1 st id q =
  match (st.qubit_engaged.(q), st.qubit_trap.(q)) with
  | true, _ | _, None -> false
  | false, Some tid ->
      Scheduler.Ready_set.mark_issued st.ready_set id;
      st.issued_at.(id) <- st.clock;
      st.qubit_engaged.(q) <- true;
      let finish = st.clock +. st.timing.Timing.t_gate1 in
      Micro.Builder.add_gate_start st.trace_buf ~instr_id:id ~trap:(trap_pos st tid) ~q0:q ~q1:(-1) ~time:st.clock;
      Micro.Builder.add_gate_end st.trace_buf ~instr_id:id ~trap:(trap_pos st tid) ~q0:q ~q1:(-1) ~time:finish;
      Hashtbl.replace st.flights id { target_trap = tid; operands = [ q ]; pending = []; arrivals = [] };
      schedule st (finish -. st.clock) (ev_instr_done id);
      true

let complete st id =
  (match Hashtbl.find_opt st.flights id with
  | Some { target_trap; operands; _ } ->
      List.iter
        (fun q ->
          st.qubit_trap.(q) <- Some target_trap;
          st.qubit_engaged.(q) <- false)
        operands;
      Hashtbl.remove st.flights id
  | None -> ());
  st.completed_at.(id) <- st.clock;
  let newly_ready = Scheduler.Ready_set.mark_done st.ready_set id in
  List.iter (fun i -> st.ready_at.(i) <- st.clock) newly_ready

(* issue everything issuable at the current clock; declarations complete
   immediately, which can ready further instructions, so iterate *)
let rec issue_round st =
  let progressed = ref false in
  Scheduler.Ready_set.iter_ready st.ready_set (fun id ->
      if Scheduler.Ready_set.is_ready st.ready_set id then begin
        let issued =
          match (Dag.node st.dag id).Dag.instr with
          | Instr.Qubit_decl _ ->
              st.issued_at.(id) <- st.clock;
              complete st id;
              true
          | Instr.Gate1 (_, q) -> try_issue_gate1 st id q
          | Instr.Gate2 (_, c, t) -> try_issue_gate2 st id c t
        in
        if issued then progressed := true
      end);
  if !progressed then issue_round st

let max_events_factor = 10_000

type error =
  | Invalid of string
  | Deadlock of { stuck : int }
  | Livelock of { events : int; budget : int }

let string_of_error = function
  | Invalid msg -> msg
  | Deadlock { stuck } ->
      Printf.sprintf "Engine.run: deadlock — %d instruction(s) unroutable with an idle fabric"
        stuck
  | Livelock { events; budget } ->
      Printf.sprintf "Engine.run: event budget exceeded (livelock? %d events > budget %d)" events
        budget

let run ~graph ~timing ~policy ~dag ~priorities ~placement ?(max_events_factor = max_events_factor)
    ?route_cache ?cancel () =
  let comp = Graph.component graph in
  let nq = Program.num_qubits (Dag.program dag) in
  let ntraps = Array.length (Component.traps comp) in
  let n = Dag.num_nodes dag in
  if max_events_factor < 1 then Error (Invalid "Engine.run: max_events_factor must be positive")
  else if Array.length placement <> nq then Error (Invalid "Engine.run: placement length mismatch")
  else if Array.exists (fun t -> t < 0 || t >= ntraps) placement then
    Error (Invalid "Engine.run: placement trap id out of range")
  else begin
    (* traps hold up to two ions, and MVFB backward runs legitimately start
       from a forward run's final placement where gate pairs share traps *)
    let load = Array.make ntraps 0 in
    let overfull = ref false in
    Array.iter
      (fun t ->
        load.(t) <- load.(t) + 1;
        if load.(t) > 2 then overfull := true)
      placement;
    if !overfull then
      Error (Invalid "Engine.run: placement assigns more than two qubits to one trap")
    else if Array.length priorities <> n then
      Error (Invalid "Engine.run: priorities length mismatch")
    else begin
      let congestion =
        Congestion.create comp ~channel_capacity:policy.channel_capacity
          ~junction_capacity:policy.junction_capacity
      in
      let workspace = Workspace.domain_local () in
      let edge_weights = Workspace.edge_weights_for workspace (Graph.num_edges graph) in
      Congestion.track_weights congestion ~turn_cost:(policy_turn_cost policy timing) graph edge_weights;
      let st =
        {
          graph;
          comp;
          timing;
          policy;
          dag;
          ready_set = Scheduler.Ready_set.create dag ~priorities;
          congestion;
          qubit_trap = Array.map Option.some placement;
          qubit_engaged = Array.make nq false;
          occupants = Array.make ntraps [];
          flights = Hashtbl.create 16;
          events = Ion_util.Fheap.create ();
          clock = 0.0;
          trace_buf = Micro.Builder.domain_local ();
          exit_buf = [||];
          ready_at = Array.make n 0.0;
          issued_at = Array.make n 0.0;
          completed_at = Array.make n 0.0;
          route_moves = Array.make n 0;
          route_turns = Array.make n 0;
          emitted_events = 0;
          workspace;
          edge_weights;
          route_cache;
          route_searches = 0;
          route_cache_hits = 0;
        }
      in
      (match route_cache with Some c -> Route_cache.for_graph c graph | None -> ());
      Micro.Builder.reset st.trace_buf;
      Array.iteri (fun q t -> st.occupants.(t) <- q :: st.occupants.(t)) placement;
      let budget = max_events_factor * (n + 1) in
      let error = ref None in
      (* cooperative cancellation checkpoint: polled once per event batch,
         so an expired deadline aborts within one batch of simulated work
         instead of running the whole program hot.  The closure raises
         (Ion_util.Clock.Expired); nothing here catches it — the mapper
         entry points translate it into the typed Deadline_exceeded. *)
      let checkpoint = match cancel with Some f -> f | None -> Fun.const () in
      issue_round st;
      while
        !error = None
        && (not (Scheduler.Ready_set.all_done st.ready_set))
        && st.emitted_events <= budget
      do
        checkpoint ();
        if Ion_util.Fheap.is_empty st.events then
          error :=
            Some
              (Deadlock
                 {
                   stuck =
                     Scheduler.Ready_set.busy_count st.ready_set
                     + List.length (Scheduler.Ready_set.ready st.ready_set)
                     + Hashtbl.length st.flights;
                 })
        else begin
            let t = st.events.Ion_util.Fheap.prio.(0) in
            let ev0 = Ion_util.Fheap.top_data st.events in
            Ion_util.Fheap.drop_min st.events;
            st.clock <- t;
            (* drain all events at this timestamp before re-issuing,
               processing each as it pops: completions and releases never
               enqueue events, so inline processing sees the same heap —
               and the same order — the former collect-then-replay did *)
            let process ev =
              if ev land 1 = 1 then Congestion.release st.congestion (Resource.of_int (ev asr 1))
              else complete st (ev asr 1)
            in
            process ev0;
            while
              (not (Ion_util.Fheap.is_empty st.events))
              && st.events.Ion_util.Fheap.prio.(0) <= t +. 1e-9
            do
              let e = Ion_util.Fheap.top_data st.events in
              Ion_util.Fheap.drop_min st.events;
              process e
            done;
            dispatch_pending st;
            Scheduler.Ready_set.requeue_busy st.ready_set;
            issue_round st;
        end
      done;
      match !error with
      | Some e -> Error e
      | None ->
          if not (Scheduler.Ready_set.all_done st.ready_set) then
            Error (Livelock { events = st.emitted_events; budget })
          else begin
            let final_placement =
              Array.map
                (function Some tid -> tid | None -> -1 (* unreachable: all done *))
                st.qubit_trap
            in
            let stats =
              Array.init n (fun i ->
                  {
                    ready_at = st.ready_at.(i);
                    issued_at = st.issued_at.(i);
                    completed_at = st.completed_at.(i);
                    route_moves = st.route_moves.(i);
                    route_turns = st.route_turns.(i);
                  })
            in
            let latency = Array.fold_left (fun acc (s : instr_stats) -> Float.max acc s.completed_at) 0.0 stats in
            let total_congestion_wait =
              Array.fold_left (fun acc (s : instr_stats) -> acc +. Float.max 0.0 (s.issued_at -. s.ready_at)) 0.0 stats
            in
            let trace = Micro.Builder.to_commands st.trace_buf in
            let total_routing_time =
              Array.fold_left
                (fun acc (s : instr_stats) ->
                  acc
                  +. (float_of_int s.route_moves *. timing.Timing.t_move)
                  +. (float_of_int s.route_turns *. timing.Timing.t_turn))
                0.0 stats
            in
            Ok
              {
                latency;
                trace;
                final_placement;
                stats;
                total_congestion_wait;
                total_routing_time;
                route_searches = st.route_searches;
                route_cache_hits = st.route_cache_hits;
              }
          end
    end
  end
