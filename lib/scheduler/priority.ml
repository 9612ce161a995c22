open Qasm

type t =
  | Qspr
  | Alap
  | Dependents_count
  | Dependent_delay
  | Fixed of float array

let qspr_default = Qspr

(* total delay of all transitive dependents, per node: BFS from each node
   (circuits are small; O(V*E) is fine) *)
let dependent_delay ~delay g =
  let n = Dag.num_nodes g in
  Array.init n (fun i ->
      let seen = Array.make n false in
      let total = ref 0.0 in
      let rec visit j =
        List.iter
          (fun s ->
            if not seen.(s) then begin
              seen.(s) <- true;
              total := !total +. delay (Dag.node g s).Dag.instr;
              visit s
            end)
          (Dag.node g j).Dag.succs
      in
      visit i;
      !total)

let compute t ~delay g =
  let n = Dag.num_nodes g in
  match t with
  | Qspr ->
      let deps = Dag.dependents g in
      let lts = Dag.longest_to_sink ~delay g in
      Array.init n (fun i -> float_of_int deps.(i) +. lts.(i))
  | Alap ->
      let alap = Dag.alap_times ~delay g in
      Array.map (fun t -> -.t) alap
  | Dependents_count -> Array.map float_of_int (Dag.dependents g)
  | Dependent_delay -> dependent_delay ~delay g
  | Fixed prios ->
      if Array.length prios <> n then invalid_arg "Priority.compute: Fixed array length mismatch";
      prios

let order_of_priorities prios =
  let ids = Array.init (Array.length prios) (fun i -> i) in
  Array.sort
    (fun a b -> match Float.compare prios.(b) prios.(a) with 0 -> Int.compare a b | c -> c)
    ids;
  ids

let replay_order order =
  let n = Array.length order in
  let prios = Array.make n 0.0 in
  Array.iteri (fun rank id -> prios.(id) <- float_of_int (n - rank)) order;
  Fixed prios
