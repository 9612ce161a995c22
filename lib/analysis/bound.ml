module D = Qasm.Dag
module EB = Estimator.Bound
module F = Finding
module Json = Ion_util.Json

let pass = "bound"

type exact_result = { optimum_us : float; proved : bool; nodes : int }

let default_node_budget = 400_000

(* exact searches past any of these limits are declined, not run *)
let max_qubits = 8
let max_two_qubit = 20
let max_traps = 16

(* Exact optimum of the relaxed machine model by branch-and-bound over
   dispatch sequences.  The model keeps, for the solution's fixed initial
   placement: per-ion position and free time, a per-trap two-qubit gate
   machine, congestion-free shortest-path travel (the Distance tables) and
   the QIDG dependencies.  Every constraint is satisfied by any legal
   execution with >= times (routes cost at least the table distance, ions
   serialize, a trap runs one two-qubit gate at a time, dependencies hold),
   so the model's optimum is an admissible latency lower bound — and it
   dominates every static bound, so a zero gap proves the audited mapping
   optimal for its initial placement.

   Branching dispatches one ready two-qubit gate to one trap per level;
   one-qubit gates and declarations are slotted greedily whenever ready
   (any gate sharing their ion is QIDG-ordered against them, so eager
   issue is optimal within the model).  Timing per dispatch order is the
   greedy earliest start, which realizes every machine sequence across
   orders — the enumeration is complete.  The DFS iterates gates then
   traps in ascending id with a deterministic prune, so the optimum and
   the node count are bit-identical on every run at any jobs width. *)
let exact_optimum ?(node_budget = default_node_budget) ~distance ~timing ~placement ~incumbent dag =
  let nodes = D.nodes dag in
  let n = Array.length nodes in
  let nq = Qasm.Program.num_qubits (D.program dag) in
  let ntraps = Estimator.Distance.num_traps distance in
  let trap_node = Estimator.Distance.trap_nodes distance in
  let g2 =
    Array.fold_left (fun acc nd -> if Qasm.Instr.is_two_qubit nd.D.instr then acc + 1 else acc) 0 nodes
  in
  if nq > max_qubits then
    Error (Printf.sprintf "instance too large for exact search: %d qubits > %d" nq max_qubits)
  else if g2 > max_two_qubit then
    Error
      (Printf.sprintf "instance too large for exact search: %d two-qubit gates > %d" g2
         max_two_qubit)
  else if ntraps > max_traps then
    Error (Printf.sprintf "fabric too large for exact search: %d traps > %d" ntraps max_traps)
  else if Array.length placement < nq then
    Error "placement shorter than the program's qubit count"
  else begin
    let tmg = timing in
    let t_move = tmg.Router.Timing.t_move in
    let t1 = tmg.Router.Timing.t_gate1 and t2 = tmg.Router.Timing.t_gate2 in
    let delay = Router.Timing.gate_delay tmg in
    let tail = D.longest_to_sink ~delay dag in
    let pos = Array.init nq (fun q -> placement.(q)) in
    let free = Array.make (max nq 1) 0.0 in
    let trap_free = Array.make (max ntraps 1) 0.0 in
    let scheduled = Array.make (max n 1) false in
    let pending = Array.map (fun nd -> List.length nd.D.preds) nodes in
    let remaining2 = ref g2 in
    let makespan = ref 0.0 in
    let best = ref (incumbent +. 1e-6) in
    let expanded = ref 0 in
    let budget_hit = ref false in
    (* greedily slot every ready declaration / one-qubit gate; returns the
       undo journal (most recent first) *)
    let rec cascade1q acc =
      let changed = ref false in
      let acc = ref acc in
      for i = 0 to n - 1 do
        if (not scheduled.(i)) && pending.(i) = 0 then
          match nodes.(i).D.instr with
          | Qasm.Instr.Gate2 _ -> ()
          | Qasm.Instr.Qubit_decl { qubit = q; _ } ->
              acc := (i, q, free.(q), !makespan) :: !acc;
              scheduled.(i) <- true;
              List.iter (fun s -> pending.(s) <- pending.(s) - 1) nodes.(i).D.succs;
              changed := true
          | Qasm.Instr.Gate1 (_, q) ->
              acc := (i, q, free.(q), !makespan) :: !acc;
              let fi = free.(q) +. t1 in
              scheduled.(i) <- true;
              free.(q) <- fi;
              makespan := Float.max !makespan fi;
              List.iter (fun s -> pending.(s) <- pending.(s) - 1) nodes.(i).D.succs;
              changed := true
      done;
      if !changed then cascade1q !acc else !acc
    in
    let undo1q acc =
      List.iter
        (fun (i, q, f, mk) ->
          List.iter (fun s -> pending.(s) <- pending.(s) + 1) nodes.(i).D.succs;
          scheduled.(i) <- false;
          free.(q) <- f;
          makespan := mk)
        acc
    in
    let rec dfs () =
      if not !budget_hit then begin
        let undo = cascade1q [] in
        if !remaining2 = 0 then begin
          if !makespan < !best then best := !makespan
        end
        else begin
          (* frontier prune: each ready gate must still run and then carry
             its heaviest dependent chain *)
          let lb = ref !makespan in
          for i = 0 to n - 1 do
            if (not scheduled.(i)) && pending.(i) = 0 then
              match nodes.(i).D.instr with
              | Qasm.Instr.Gate2 (_, a, b) ->
                  let r = Float.max free.(a) free.(b) +. tail.(i) in
                  if r > !lb then lb := r
              | _ -> ()
          done;
          if !lb < !best then
            for i = 0 to n - 1 do
              if (not !budget_hit) && (not scheduled.(i)) && pending.(i) = 0 then
                match nodes.(i).D.instr with
                | Qasm.Instr.Gate2 (_, a, b) ->
                    (* the DFS below restores pos before the next m *)
                    let ra = Estimator.Distance.row distance pos.(a)
                    and rb = Estimator.Distance.row distance pos.(b) in
                    for m = 0 to ntraps - 1 do
                      if not !budget_hit then begin
                        let st =
                          Float.max trap_free.(m)
                            (Float.max
                               (free.(a) +. (ra.(trap_node.(m)) *. t_move))
                               (free.(b) +. (rb.(trap_node.(m)) *. t_move)))
                        in
                        if st +. tail.(i) < !best then begin
                          incr expanded;
                          if !expanded > node_budget then budget_hit := true
                          else begin
                            let sa_pos = pos.(a) and sb_pos = pos.(b) in
                            let sa_free = free.(a) and sb_free = free.(b) in
                            let s_trap = trap_free.(m) and s_mk = !makespan in
                            let fi = st +. t2 in
                            scheduled.(i) <- true;
                                          pos.(a) <- m;
                            pos.(b) <- m;
                            free.(a) <- fi;
                            free.(b) <- fi;
                            trap_free.(m) <- fi;
                            makespan := Float.max !makespan fi;
                            decr remaining2;
                            List.iter (fun s -> pending.(s) <- pending.(s) - 1) nodes.(i).D.succs;
                            dfs ();
                            List.iter (fun s -> pending.(s) <- pending.(s) + 1) nodes.(i).D.succs;
                            incr remaining2;
                            makespan := s_mk;
                            trap_free.(m) <- s_trap;
                            free.(a) <- sa_free;
                            free.(b) <- sb_free;
                            pos.(a) <- sa_pos;
                            pos.(b) <- sb_pos;
                                              scheduled.(i) <- false
                          end
                        end
                      end
                    done
                | _ -> ()
            done
        end;
        undo1q undo
      end
    in
    dfs ();
    Ok { optimum_us = Float.min !best incumbent; proved = not !budget_hit; nodes = !expanded }
  end

type report = {
  latency_us : float;
  bounds : EB.t;
  exact : exact_result option;
  exact_skipped : string option;
  lower_bound_us : float;
  bound_kind : EB.kind;
  optimality_gap : float;
  findings : F.t list;
}

let infeasibility_finding (i : EB.infeasibility) =
  F.make ~pass ~kind:"infeasible"
    ~extra:
      [
        ("qubits", Json.Int i.EB.inf_qubits);
        ("traps", Json.Int i.EB.inf_traps);
        ("required_traps", Json.Int i.EB.inf_required);
        ("hard", Json.Bool i.EB.inf_hard);
      ]
    F.Error "%s" (EB.infeasibility_message i)

let audit ?(exact = false) ?node_budget ctx (sol : Qspr.Mapper.solution) =
  let bounds = Qspr.Mapper.certified_bound ctx ~initial_placement:sol.Qspr.Mapper.initial_placement in
  let latency = sol.Qspr.Mapper.latency in
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  (* the solution's own fields must be the recomputation, bit for bit: the
     bound is a pure function of (context, placement) *)
  if
    sol.Qspr.Mapper.lower_bound_us <> bounds.EB.lower_bound_us
    || sol.Qspr.Mapper.bound_kind <> bounds.EB.kind
  then
    emit
      (F.make ~pass ~kind:"bound-mismatch" F.Error
         "solution claims lower bound %.4f us (%s) but recomputation gives %.4f us (%s)"
         sol.Qspr.Mapper.lower_bound_us
         (EB.kind_to_string sol.Qspr.Mapper.bound_kind)
         bounds.EB.lower_bound_us (EB.kind_to_string bounds.EB.kind));
  let exact_r, exact_skipped =
    if not exact then (None, None)
    else begin
      let timing = (Qspr.Mapper.config ctx).Qspr.Config.timing in
      let distance = Estimator.Model.distance (Qspr.Mapper.estimator_model ctx) in
      match
        exact_optimum ?node_budget ~distance ~timing
          ~placement:sol.Qspr.Mapper.initial_placement ~incumbent:latency (Qspr.Mapper.dag ctx)
      with
      | Ok r ->
          if r.proved && r.optimum_us < bounds.EB.lower_bound_us -. 1e-6 then
            emit
              (F.make ~pass ~kind:"exact-below-static" F.Error
                 "exact optimum %.4f us is below the static bound %.4f us: the relaxation lost a \
                  constraint the static bounds rely on"
                 r.optimum_us bounds.EB.lower_bound_us);
          (Some r, None)
      | Error reason ->
          emit (F.make ~pass ~kind:"exact-skipped" F.Hint "%s" reason);
          (None, Some reason)
    end
  in
  let lower_bound_us, bound_kind =
    match exact_r with
    | Some r when r.proved && r.optimum_us > bounds.EB.lower_bound_us ->
        (r.optimum_us, EB.Exact)
    | _ -> (bounds.EB.lower_bound_us, bounds.EB.kind)
  in
  if lower_bound_us > latency +. 1e-6 then
    emit
      (F.make ~pass ~kind:"bound-violation"
         ~extra:
           [
             ("lower_bound_us", Json.Float lower_bound_us);
             ("latency_us", Json.Float latency);
           ]
         F.Error "certified lower bound %.4f us (%s) exceeds the achieved latency %.4f us"
         lower_bound_us (EB.kind_to_string bound_kind) latency);
  let optimality_gap = Option.value ~default:0.0 (EB.gap ~latency ~bound:lower_bound_us) in
  (match exact_r with
  | Some r when r.proved && optimality_gap <= 1e-9 && lower_bound_us <= latency +. 1e-6 ->
      emit
        (F.make ~pass ~kind:"optimality-gap" ~extra:[ ("gap", Json.Float 0.0) ] F.Hint
           "provably optimal: the exact optimum equals the achieved latency (%.2f us, %d search \
            nodes)"
           latency r.nodes)
  | _ ->
      emit
        (F.make ~pass ~kind:"optimality-gap"
           ~extra:[ ("gap", Json.Float optimality_gap) ]
           F.Hint "achieved %.2f us vs certified bound %.2f us (%s): gap %.1f%%" latency
           lower_bound_us (EB.kind_to_string bound_kind)
           (100.0 *. optimality_gap)));
  {
    latency_us = latency;
    bounds;
    exact = exact_r;
    exact_skipped;
    lower_bound_us;
    bound_kind;
    optimality_gap;
    findings = F.sort !findings;
  }

let to_json ~circuit ~placer r =
  Json.Obj
    [
      ("schema", Json.String "qspr-audit/1");
      ("circuit", Json.String circuit);
      ("placer", Json.String placer);
      ("latency_us", Json.Float r.latency_us);
      ( "bounds",
        Json.Obj
          [
            ("critical_path_us", Json.Float r.bounds.EB.critical_path_us);
            ("serialization_us", Json.Float r.bounds.EB.serialization_us);
            ("capacity_us", Json.Float r.bounds.EB.capacity_us);
            ( "placement_us",
              match r.bounds.EB.placement_us with Some p -> Json.Float p | None -> Json.Null );
          ] );
      ("lower_bound_us", Json.Float r.lower_bound_us);
      ("bound_kind", Json.String (EB.kind_to_string r.bound_kind));
      ("optimality_gap", Json.Float r.optimality_gap);
      ( "exact",
        match r.exact with
        | Some e ->
            Json.Obj
              [
                ("optimum_us", Json.Float e.optimum_us);
                ("proved", Json.Bool e.proved);
                ("nodes", Json.Int e.nodes);
              ]
        | None -> Json.Null );
      ( "exact_skipped",
        match r.exact_skipped with Some s -> Json.String s | None -> Json.Null );
      ("findings", Json.List (List.map F.to_json r.findings));
    ]

let render r =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "achieved latency   %10.2f us\n" r.latency_us;
  Printf.bprintf buf "critical-path      %10.2f us\n" r.bounds.EB.critical_path_us;
  Printf.bprintf buf "serialization      %10.2f us\n" r.bounds.EB.serialization_us;
  Printf.bprintf buf "capacity           %10.2f us\n" r.bounds.EB.capacity_us;
  (match r.bounds.EB.placement_us with
  | Some p -> Printf.bprintf buf "placement          %10.2f us\n" p
  | None -> ());
  (match r.exact with
  | Some e ->
      Printf.bprintf buf "exact optimum      %10.2f us (%s, %d nodes)\n" e.optimum_us
        (if e.proved then "proved" else "budget hit — not a bound")
        e.nodes
  | None -> ());
  Printf.bprintf buf "certified bound    %10.2f us (%s)\n" r.lower_bound_us
    (EB.kind_to_string r.bound_kind);
  Printf.bprintf buf "optimality gap     %10.1f %%\n" (100.0 *. r.optimality_gap);
  List.iter (fun f -> Buffer.add_string buf (Format.asprintf "%a@." F.pp f)) r.findings;
  Buffer.contents buf
