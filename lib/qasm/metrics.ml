type t = {
  qubits : int;
  gates : int;
  one_qubit_gates : int;
  two_qubit_gates : int;
  depth : int;
  critical_path_us : float;
  max_parallelism : int;
  avg_parallelism : float;
  two_qubit_interactions : (int * int) list;
}

(* the paper's technology delays; Metrics sits below the router so the
   constants live here rather than in Router.Timing *)
let paper_delay = function
  | Instr.Qubit_decl _ -> 0.0
  | Instr.Gate1 _ -> 10.0
  | Instr.Gate2 _ -> 100.0

let of_program p =
  let g = Dag.of_program p in
  (* depth: the deepest gate level; parallelism: gates sharing a level *)
  let level = Dag.gate_levels g in
  let depth = Array.fold_left max 0 level in
  let gates = Program.gate_count p in
  let per_level = Array.make (depth + 1) 0 in
  Array.iter (fun l -> if l > 0 then per_level.(l) <- per_level.(l) + 1) level;
  let max_parallelism = Array.fold_left max 0 per_level in
  let pairs =
    Array.to_list p.Program.instrs
    |> List.filter_map (function
         | Instr.Gate2 (_, c, t) -> Some (min c t, max c t)
         | Instr.Qubit_decl _ | Instr.Gate1 _ -> None)
    |> List.sort_uniq compare
  in
  {
    qubits = Program.num_qubits p;
    gates;
    one_qubit_gates = Program.one_qubit_count p;
    two_qubit_gates = Program.two_qubit_count p;
    depth;
    critical_path_us = Dag.critical_path ~delay:paper_delay g;
    max_parallelism;
    avg_parallelism = (if depth = 0 then 0.0 else float_of_int gates /. float_of_int depth);
    two_qubit_interactions = pairs;
  }

let interaction_degree t out =
  if Array.length out <> t.qubits then invalid_arg "Metrics.interaction_degree: length mismatch";
  Array.fill out 0 (Array.length out) 0;
  List.iter
    (fun (a, b) ->
      out.(a) <- out.(a) + 1;
      out.(b) <- out.(b) + 1)
    t.two_qubit_interactions

let pp ppf t =
  Format.fprintf ppf
    "@[<v>qubits: %d@,gates: %d (%d one-qubit, %d two-qubit)@,depth: %d (critical path %.0f us)@,\
     parallelism: max %d, avg %.2f@,distinct interacting pairs: %d@]"
    t.qubits t.gates t.one_qubit_gates t.two_qubit_gates t.depth t.critical_path_us t.max_parallelism
    t.avg_parallelism
    (List.length t.two_qubit_interactions)
