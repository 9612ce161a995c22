module D = Qasm.Dag
module Timing = Router.Timing

type kind = Critical_path | Serialization | Capacity | Placement | Exact

let kind_to_string = function
  | Critical_path -> "critical-path"
  | Serialization -> "serialization"
  | Capacity -> "capacity"
  | Placement -> "placement"
  | Exact -> "exact"

type t = {
  critical_path_us : float;
  serialization_us : float;
  capacity_us : float;
  placement_us : float option;
  lower_bound_us : float;
  kind : kind;
}

(* Ancestor bitsets are quadratic in the instruction count; past this the
   placement bound falls back to travel-only releases (still admissible). *)
let max_ancestor_nodes = 4096

(* Release-time propagation: est(i) >= release(i) and
   est(i) >= est(p) + delay(p) for every QIDG predecessor p.  Any legal
   schedule satisfies both, so max_i (est(i) + delay(i)) is admissible. *)
let propagate ~delay nodes release =
  let n = Array.length nodes in
  let est = Array.make n 0.0 in
  let finish = ref 0.0 in
  Array.iter
    (fun (nd : D.node) ->
      let r =
        List.fold_left
          (fun acc p -> Float.max acc (est.(p) +. delay nodes.(p).D.instr))
          release.(nd.D.id) nd.D.preds
      in
      est.(nd.D.id) <- r;
      finish := Float.max !finish (r +. delay nd.D.instr))
    nodes;
  !finish

let placement_bound ~delay ~timing ~dist ~pl nodes nq =
  let n = Array.length nodes in
  if Array.length pl < nq then
    invalid_arg "Estimator.Bound.compute: placement shorter than the program's qubit count";
  let ntraps = Distance.num_traps dist and trap_node = Distance.trap_nodes dist in
  for q = 0 to nq - 1 do
    if pl.(q) < 0 || pl.(q) >= ntraps then
      invalid_arg "Estimator.Bound.compute: placement names a trap outside the distance tables"
  done;
  (* anc.(i) = QIDG ancestors of node i, as a bitset over node ids. *)
  let anc =
    if n > max_ancestor_nodes then None
    else begin
      let anc = Array.init n (fun _ -> Ion_util.Bitv.create n) in
      Array.iter
        (fun (nd : D.node) ->
          List.iter
            (fun p ->
              Ion_util.Bitv.or_into ~dst:anc.(nd.D.id) ~src:anc.(p);
              Ion_util.Bitv.set anc.(nd.D.id) p true)
            nd.D.preds)
        nodes;
      Some anc
    end
  in
  (* w i q: gate time of ancestors of i touching qubit q.  They all finish
     before i starts, and they pairwise share ion q, hence run serially.
     on_q.(q) lists the positive-delay nodes naming q, once each, in
     ascending id order; summing the ancestors among them adds the same
     terms in the same order as a sweep over anc.(i).  Ids are topological,
     so the walk stops at i. *)
  let w =
    match anc with
    | None -> fun _ _ -> 0.0
    | Some anc ->
        let dl = Array.map (fun (nd : D.node) -> delay nd.D.instr) nodes in
        let on_q = Array.make nq [] in
        for a = n - 1 downto 0 do
          if dl.(a) > 0.0 then
            List.iter
              (fun q ->
                match on_q.(q) with
                | b :: _ when b = a -> ()
                | l -> on_q.(q) <- a :: l)
              (Qasm.Instr.qubits nodes.(a).D.instr)
        done;
        let on_q = Array.map Array.of_list on_q in
        fun i q ->
          let ids = on_q.(q) and ai = anc.(i) in
          let acc = ref 0.0 and k = ref 0 in
          while !k < Array.length ids && ids.(!k) < i do
            let a = ids.(!k) in
            if Ion_util.Bitv.get ai a then acc := !acc +. dl.(a);
            incr k
          done;
          !acc
  in
  let t_move = timing.Timing.t_move in
  let release = Array.make n 0.0 in
  Array.iter
    (fun (nd : D.node) ->
      match nd.D.instr with
      | Qasm.Instr.Qubit_decl _ -> ()
      | Qasm.Instr.Gate1 (_, q) -> release.(nd.D.id) <- w nd.D.id q
      | Qasm.Instr.Gate2 (_, a, b) ->
          (* The gate runs in some trap m; each operand must first spend its
             ancestor gate time and then at least the shortest-path travel
             from its initial trap to m (a route's cumulative cost can only
             exceed the table distance).  Minimize over the unknown m. *)
          let wa = w nd.D.id a and wb = w nd.D.id b in
          let ra = Distance.row dist pl.(a) and rb = Distance.row dist pl.(b) in
          let best = ref infinity in
          for m = 0 to ntraps - 1 do
            let v = trap_node.(m) in
            let c = Float.max (wa +. (ra.(v) *. t_move)) (wb +. (rb.(v) *. t_move)) in
            if c < !best then best := c
          done;
          release.(nd.D.id) <- !best)
    nodes;
  propagate ~delay nodes release

let compute ?placement ?distance ~timing ~num_traps dag =
  let delay = Timing.gate_delay timing in
  let nodes = D.nodes dag in
  let nq = Qasm.Program.num_qubits (D.program dag) in
  let critical_path_us = D.critical_path ~delay dag in
  (* serialization: the busiest single ion's total gate time *)
  let per_q = Array.make (max nq 1) 0.0 in
  Array.iter
    (fun (nd : D.node) ->
      let d = delay nd.D.instr in
      if d > 0.0 then List.iter (fun q -> per_q.(q) <- per_q.(q) +. d) (Qasm.Instr.qubits nd.D.instr))
    nodes;
  let serialization_us = Array.fold_left Float.max 0.0 per_q in
  (* capacity: two-qubit gate work over the concurrency ceiling *)
  let g2 =
    Array.fold_left (fun acc nd -> if Qasm.Instr.is_two_qubit nd.D.instr then acc + 1 else acc) 0 nodes
  in
  let slots = min num_traps (nq / 2) in
  let capacity_us =
    if g2 = 0 || slots <= 0 then 0.0
    else float_of_int g2 *. timing.Timing.t_gate2 /. float_of_int slots
  in
  let placement_us =
    match (placement, distance) with
    | Some pl, Some dist when Array.length nodes > 0 ->
        Some (placement_bound ~delay ~timing ~dist ~pl nodes nq)
    | _ -> None
  in
  let candidates =
    [
      (Critical_path, critical_path_us);
      (Serialization, serialization_us);
      (Capacity, capacity_us);
    ]
    @ (match placement_us with Some p -> [ (Placement, p) ] | None -> [])
  in
  let lower_bound_us = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 candidates in
  let kind =
    (* first in catalog order attaining the max, for deterministic ties *)
    match List.find_opt (fun (_, v) -> v >= lower_bound_us) candidates with
    | Some (k, _) -> k
    | None -> Critical_path
  in
  { critical_path_us; serialization_us; capacity_us; placement_us; lower_bound_us; kind }

let gap ~latency ~bound = if bound > 0.0 then Some ((latency -. bound) /. bound) else None

type infeasibility = {
  inf_qubits : int;
  inf_traps : int;
  inf_required : int;
  inf_hard : bool;
}

let infeasibility ~num_traps dag =
  let nq = Qasm.Program.num_qubits (D.program dag) in
  match Fabric.Lint.trap_load ~traps:num_traps ~qubits:nq with
  | Fabric.Lint.Impossible ->
      Some { inf_qubits = nq; inf_traps = num_traps; inf_required = (nq + 1) / 2; inf_hard = true }
  | Fabric.Lint.Starved ->
      Some { inf_qubits = nq; inf_traps = num_traps; inf_required = nq; inf_hard = false }
  | Fabric.Lint.Roomy | Fabric.Lint.Tight -> None

let infeasibility_message i =
  if i.inf_hard then
    Printf.sprintf
      "capacity bound is infinite: %d qubits need at least %d traps (two ions per trap) but the \
       fabric has %d"
      i.inf_qubits i.inf_required i.inf_traps
  else
    Printf.sprintf
      "unmappable under the load rule: %d qubits need %d traps (one ion per trap at load) but the \
       fabric has %d"
      i.inf_qubits i.inf_required i.inf_traps
