module Rng = Ion_util.Rng

(* Occupancy-tracked neighbour proposal: the candidate free traps are a
   maintained array with a trap->slot index, so drawing a move is O(1) and
   allocation-free: no proposal scans the pool against the placement. *)
module Proposal = struct
  type move =
    | Swap of int * int  (* exchange the traps of two distinct qubits *)
    | Relocate of int * int  (* qubit, currently free candidate trap *)
    | Stay  (* no free candidate trap: evaluate the unchanged placement *)

  type t = {
    occupied : bool array;  (* trap -> hosts an ion *)
    in_pool : bool array;  (* trap -> member of the candidate pool *)
    free : int array;  (* free candidate traps, dense prefix [0, nfree) *)
    slot : int array;  (* trap -> index into [free], -1 when absent *)
    mutable nfree : int;
  }

  let create ~num_traps pool placement =
    let occupied = Array.make num_traps false in
    Array.iter
      (fun p ->
        if p < 0 || p >= num_traps then invalid_arg "Annealing.Proposal.create: trap out of range";
        if occupied.(p) then invalid_arg "Annealing.Proposal.create: duplicate trap assignment";
        occupied.(p) <- true)
      placement;
    let in_pool = Array.make num_traps false in
    let slot = Array.make num_traps (-1) in
    let free = Array.make (Array.length pool) 0 in
    let t = { occupied; in_pool; free; slot; nfree = 0 } in
    Array.iter
      (fun p ->
        in_pool.(p) <- true;
        if not occupied.(p) then begin
          free.(t.nfree) <- p;
          slot.(p) <- t.nfree;
          t.nfree <- t.nfree + 1
        end)
      pool;
    t

  let num_free t = t.nfree
  let is_free t trap = t.slot.(trap) >= 0

  (* The rng draws are fixed, and the anneal pins depend on them: a coin
     only when a swap is possible, then one or two bounded draws; the
     relocation target is uniform over the free candidate traps. *)
  let draw t rng ~num_qubits =
    if num_qubits >= 2 && Rng.bool rng then begin
      let i = Rng.int rng num_qubits in
      let j = (i + 1 + Rng.int rng (num_qubits - 1)) mod num_qubits in
      Swap (i, j)
    end
    else begin
      let i = Rng.int rng num_qubits in
      if t.nfree = 0 then Stay else Relocate (i, t.free.(Rng.int rng t.nfree))
    end

  let add_free t trap =
    t.free.(t.nfree) <- trap;
    t.slot.(trap) <- t.nfree;
    t.nfree <- t.nfree + 1

  let remove_free t trap =
    let s = t.slot.(trap) in
    let last = t.free.(t.nfree - 1) in
    t.free.(s) <- last;
    t.slot.(last) <- s;
    t.slot.(trap) <- -1;
    t.nfree <- t.nfree - 1

  (* Commit an accepted relocation [src -> dst].  Swaps leave the occupied
     trap set unchanged and need no commit. *)
  let relocate t ~src ~dst =
    t.occupied.(src) <- false;
    if t.in_pool.(src) then add_free t src;
    t.occupied.(dst) <- true;
    remove_free t dst
end

(* Zero-temperature delta-SA: an uphill move is always rejected, so the
   cut-off lets it stop propagating as soon as it is proven uphill. *)
let greedy_delta ~rng ~pool delta ~moves =
  let num_qubits = Estimator.Delta.num_qubits delta in
  let tracker =
    Proposal.create ~num_traps:(Estimator.Delta.num_traps delta) pool
      (Estimator.Delta.placement delta)
  in
  let cutoff () = 0.0 in
  let accepted = ref 0 in
  for _ = 1 to moves do
    match Proposal.draw tracker rng ~num_qubits with
    | Proposal.Stay -> ()
    | Proposal.Swap (i, j) ->
        if Estimator.Delta.apply_swap ~cutoff delta i j <= 0.0 then begin
          Estimator.Delta.commit delta;
          incr accepted
        end
        else Estimator.Delta.undo delta
    | Proposal.Relocate (q, dst) ->
        let src = Estimator.Delta.trap_of delta q in
        if Estimator.Delta.apply_move ~cutoff delta q dst <= 0.0 then begin
          Estimator.Delta.commit delta;
          Proposal.relocate tracker ~src ~dst;
          incr accepted
        end
        else Estimator.Delta.undo delta
  done;
  !accepted

(* Draw [n] random starts and return the best-estimated one (ties keep the
   earliest draw).  The draws consume the rng sequentially before any
   fan-out, and the estimates are pure, so the choice is deterministic for
   any pool size. *)
let prescreen_start ?domain_pool ~rng ~n ~estimate comp ~num_qubits =
  let candidates = Array.init n (fun _ -> Center.place_permuted rng comp ~num_qubits) in
  let amap =
    match domain_pool with Some p -> Ion_util.Domain_pool.map p | None -> Array.map
  in
  let scores = amap estimate candidates in
  let best = ref 0 in
  for i = 1 to n - 1 do
    if scores.(i) < scores.(!best) then best := i
  done;
  candidates.(!best)

(* Both anneals start at [initial_temperature] us and propose over the
   [candidates_per_qubit * num_qubits] traps nearest the center.  [search]
   cools by [cooling] per routed evaluation; [search_delta] derives its
   cooling from the move budget and rebuilds its delta state every
   [resync_every] moves. *)
let initial_temperature = 100.0
let cooling = 0.95
let candidates_per_qubit = 3
let resync_every = 8192

let search ?pool:domain_pool ?prescreen ?max_evals ?(out_of_time = fun () -> false) ~rng
    ?(evaluations = 60) ~(evaluate : Search.evaluator) comp ~num_qubits =
  let invalid msg = Error (Simulator.Engine.Invalid msg) in
  (* deterministic evaluation budget: cap the schedule length up front *)
  let capped = match max_evals with Some cap -> max 1 cap < evaluations | None -> false in
  let evaluations =
    match max_evals with Some cap -> min evaluations (max 1 cap) | None -> evaluations
  in
  if evaluations < 1 then invalid "Annealing.search: need at least one evaluation"
  else if (match prescreen with Some (n, _) -> n < 1 | None -> false) then
    invalid "Annealing.search: prescreen candidates must be at least 1"
  else begin
    match Center.center_traps comp (candidates_per_qubit * num_qubits) with
    | exception Invalid_argument msg -> invalid msg
    | pool_list -> (
        let pool = Array.of_list pool_list in
        let num_traps = Array.length (Fabric.Component.traps comp) in
        let current =
          ref
            (match prescreen with
            | None -> Center.place_permuted rng comp ~num_qubits
            | Some (n, estimate) ->
                prescreen_start ?domain_pool ~rng ~n ~estimate comp ~num_qubits)
        in
        match evaluate !current with
        | Error _ as e -> e
        | Ok r0 ->
            let tracker = Proposal.create ~num_traps pool !current in
            let current_cost = ref r0.Simulator.Engine.latency in
            let best = ref (Array.copy !current, r0) in
            let best_cost = ref !current_cost in
            let latencies = ref [ !current_cost ] in
            let temperature = ref initial_temperature in
            let error = ref None in
            let evals = ref 1 in
            let timed_out = ref false in
            while !error = None && !evals < evaluations && not !timed_out do
              if out_of_time () then timed_out := true
              else begin
                let move = Proposal.draw tracker rng ~num_qubits in
                let candidate = Array.copy !current in
                (match move with
                | Proposal.Swap (i, j) ->
                    let tmp = candidate.(i) in
                    candidate.(i) <- candidate.(j);
                    candidate.(j) <- tmp
                | Proposal.Relocate (q, trap) -> candidate.(q) <- trap
                | Proposal.Stay -> ());
                (match evaluate candidate with
                | Error e -> error := Some e
                | Ok r ->
                    incr evals;
                    let cost = r.Simulator.Engine.latency in
                    latencies := cost :: !latencies;
                    let delta = cost -. !current_cost in
                    let accept =
                      delta <= 0.0
                      || Rng.float rng 1.0 < exp (-.delta /. Float.max 1e-9 !temperature)
                    in
                    if accept then begin
                      (match move with
                      | Proposal.Relocate (q, dst) ->
                          Proposal.relocate tracker ~src:!current.(q) ~dst
                      | Proposal.Swap _ | Proposal.Stay -> ());
                      current := candidate;
                      current_cost := cost;
                      if cost < !best_cost then begin
                        best := (Array.copy candidate, r);
                        best_cost := cost
                      end
                    end);
                temperature := !temperature *. cooling
              end
            done;
            (match !error with
            | Some e -> Error e
            | None ->
                let placement, result = !best in
                Ok
                  {
                    Search.placement;
                    result;
                    direction = Search.Forward;
                    runs = !evals;
                    evaluations = !evals;
                    latencies = List.rev !latencies;
                    truncated = capped || !timed_out;
                  }))
  end

(* ------------------------------------------------------------- delta SA *)

type delta_outcome = {
  placement : int array;
  result : Simulator.Engine.score;
  moves : int;
  accepted : int;
  engine_evals : int;
  best_estimate : float;
  max_drift : float;
  latencies : float list;
  truncated : bool;
}

(* The move loop's float state in one all-float record, whose fields are
   stored unboxed: updating them allocates nothing, where a [float ref]
   captured by a closure boxes every store. *)
type sa_state = {
  mutable temperature : float;
  mutable u : float;  (* this move's acceptance uniform; negative until drawn *)
  mutable cur_est : float;  (* delta-model latency of the current placement *)
  mutable best_est : float;
}

let search_delta ?max_evals ?(out_of_time = fun () -> false) ~rng ?(moves = 20_000) ~model
    ~(evaluate : Search.evaluator) comp ~num_qubits =
  let route_every = max 1 (moves / 4) in
  (* decay to 1e-4 of the initial temperature over the whole move budget,
     whatever its length; past ~1e17 moves the factor rounds to 1 *)
  let cooling = exp (log 1e-4 /. float_of_int (max 1 moves)) in
  let invalid msg = Error (Simulator.Engine.Invalid msg) in
  if cooling >= 1.0 then invalid "Annealing.search_delta: bad temperature schedule"
  else if moves < 1 then invalid "Annealing.search_delta: need at least one move"
  else begin
    match Center.center_traps comp (candidates_per_qubit * num_qubits) with
    | exception Invalid_argument msg -> invalid msg
    | pool_list -> (
        let pool = Array.of_list pool_list in
        let num_traps = Array.length (Fabric.Component.traps comp) in
        let start = Center.place_permuted rng comp ~num_qubits in
        match evaluate start with
        | Error _ as e -> e
        | Ok r0 ->
            let delta = Estimator.Delta.create model start in
            let tracker = Proposal.create ~num_traps pool start in
            let st =
              {
                temperature = initial_temperature;
                u = -1.0;
                cur_est = Estimator.Delta.latency delta;
                best_est = Estimator.Delta.latency delta;
              }
            in
            let best_place = Array.copy start in
            let best_dirty = ref false in
            let routed_place = ref (Array.copy start) in
            let routed_result = ref r0 in
            let routed_cost = ref r0.Simulator.Engine.latency in
            let eval_cap = match max_evals with Some c -> max 1 c | None -> max_int in
            let engine_evals = ref 1 in
            let latencies = ref [ r0.Simulator.Engine.latency ] in
            let accepted = ref 0 in
            let max_drift = ref 0.0 in
            let error = ref None in
            let timed_out = ref false in
            let m = ref 0 in
            (* route the best-estimated incumbent when it changed since the
               last routed evaluation — only improved incumbents pay the
               schedule-and-route cost *)
            let route_incumbent () =
              if !best_dirty && !engine_evals < eval_cap && !error = None then
                match evaluate best_place with
                | Error e -> error := Some e
                | Ok r ->
                    incr engine_evals;
                    best_dirty := false;
                    latencies := r.Simulator.Engine.latency :: !latencies;
                    if r.Simulator.Engine.latency < !routed_cost then begin
                      routed_place := Array.copy best_place;
                      routed_result := r;
                      routed_cost := r.Simulator.Engine.latency
                    end
            in
            let record_improvement () =
              st.cur_est <- Estimator.Delta.latency delta;
              if st.cur_est < st.best_est then begin
                st.best_est <- st.cur_est;
                for q = 0 to num_qubits - 1 do
                  best_place.(q) <- Estimator.Delta.trap_of delta q
                done;
                best_dirty := true
              end
            in
            (* Metropolis with an early out.  An uphill move [d > 0] is
               accepted iff [u < exp (-d / T)] for one uniform [u], i.e.
               about iff [d < -T ln u].  The uniform is drawn when the delta
               model first proves the move uphill rather than after it
               finishes — still exactly one draw per move with [d > 0], in
               the same order — and the returned [dmax] lets it abandon the
               cone once [d] provably exceeds it.  The extra [1e-9 T] keeps
               that proof clear of the rounding of [exp] and [log], so an
               aborted move is one the formula below rejects too. *)
            let cutoff =
              Some
                (fun () ->
                  let u = Rng.float rng 1.0 in
                  st.u <- u;
                  Float.max 1e-9 st.temperature *. (1e-9 -. log u))
            in
            let accepts d =
              d <= 0.0
              || (if st.u >= 0.0 then st.u else Rng.float rng 1.0)
                 < exp (-.d /. Float.max 1e-9 st.temperature)
            in
            while !error = None && !m < moves && not !timed_out do
              if !m land 511 = 0 && out_of_time () then timed_out := true
              else begin
                incr m;
                st.u <- -1.0;
                (match Proposal.draw tracker rng ~num_qubits with
                | Proposal.Stay -> ()
                | Proposal.Swap (i, j) ->
                    let d = Estimator.Delta.apply_swap ?cutoff delta i j in
                    if accepts d then begin
                      Estimator.Delta.commit delta;
                      incr accepted;
                      record_improvement ()
                    end
                    else Estimator.Delta.undo delta
                | Proposal.Relocate (q, dst) ->
                    let src = Estimator.Delta.trap_of delta q in
                    let d = Estimator.Delta.apply_move ?cutoff delta q dst in
                    if accepts d then begin
                      Estimator.Delta.commit delta;
                      Proposal.relocate tracker ~src ~dst;
                      incr accepted;
                      record_improvement ()
                    end
                    else Estimator.Delta.undo delta);
                if !m mod resync_every = 0 then begin
                  let drift = Estimator.Delta.resync delta in
                  if drift > !max_drift then max_drift := drift
                end;
                if !m mod route_every = 0 then route_incumbent ();
                st.temperature <- st.temperature *. cooling
              end
            done;
            route_incumbent ();
            (match !error with
            | Some e -> Error e
            | None ->
                Ok
                  {
                    placement = !routed_place;
                    result = !routed_result;
                    moves = !m;
                    accepted = !accepted;
                    engine_evals = !engine_evals;
                    best_estimate = st.best_est;
                    max_drift = !max_drift;
                    latencies = List.rev !latencies;
                    truncated = !timed_out || (!best_dirty && !engine_evals >= eval_cap);
                  }))
  end
