module F = Finding
module Coord = Ion_util.Coord
open Fabric

let pass = "fabric"

(* Articulation points of the routing graph via iterative Tarjan DFS,
   keeping per-subtree trap counts.  A junction node (H or V half) whose
   removal separates traps from traps means the physical junction is a
   serialization funnel: all cross traffic shares its capacity.  Channel
   nodes are articulation points too on any non-cyclic fabric — reporting
   every one would drown a linear machine in warnings, so only junctions
   (where capacity is contended by construction) are surfaced. *)
let cut_junctions comp graph =
  let n = Graph.num_nodes graph in
  let traps = Component.traps comp in
  let is_trap = Array.make n false in
  Array.iter (fun (t : Component.trap) -> is_trap.(Graph.trap_node graph t.Component.tid) <- true) traps;
  let disc = Array.make n (-1) in
  let low = Array.make n 0 in
  let trap_sub = Array.make n 0 in
  let counter = ref 0 in
  (* coord -> (smaller side, larger side), keeping the most severe split
     per physical junction (both halves can be articulation points) *)
  let hits : (int * int) Coord.Tbl.t = Coord.Tbl.create 16 in
  let record v sep_traps total =
    let other = total - sep_traps in
    if sep_traps > 0 && other > 0 then begin
      let s = min sep_traps other and l = max sep_traps other in
      let c = Graph.node_pos graph v in
      match Coord.Tbl.find_opt hits c with
      | Some (s0, _) when s0 >= s -> ()
      | _ -> Coord.Tbl.replace hits c (s, l)
    end
  in
  for root = 0 to n - 1 do
    if disc.(root) < 0 then begin
      (* iterative DFS: each frame is (node, parent, remaining edges) *)
      let comp_traps = ref 0 in
      let stack = ref [] in
      let push v parent =
        disc.(v) <- !counter;
        low.(v) <- !counter;
        incr counter;
        trap_sub.(v) <- (if is_trap.(v) then 1 else 0);
        if is_trap.(v) then incr comp_traps;
        stack := (v, parent, ref (Graph.adj graph v), ref 0) :: !stack
      in
      push root (-1);
      let splits = ref [] (* (v, child_traps) for articulation children *) in
      let root_children = ref 0 and root_child_traps = ref [] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (v, parent, edges, _) :: rest -> (
            match !edges with
            | e :: tl ->
                edges := tl;
                let w = e.Graph.dst in
                if disc.(w) < 0 then push w v
                else if w <> parent then low.(v) <- min low.(v) disc.(w)
            | [] ->
                stack := rest;
                (match rest with
                | (p, _, _, _) :: _ ->
                    low.(p) <- min low.(p) low.(v);
                    trap_sub.(p) <- trap_sub.(p) + trap_sub.(v);
                    if p = root then begin
                      incr root_children;
                      root_child_traps := trap_sub.(v) :: !root_child_traps
                    end
                    else if low.(v) >= disc.(p) then splits := (p, trap_sub.(v)) :: !splits
                | [] -> ()))
      done;
      let total = !comp_traps in
      List.iter (fun (v, child_traps) -> record v child_traps total) !splits;
      (* the root is an articulation point iff it has >= 2 DFS children;
         each child subtree is then a separated side *)
      if !root_children >= 2 then
        List.iter (fun child_traps -> record root child_traps total) !root_child_traps
    end
  done;
  Coord.Tbl.fold
    (fun c (s, l) acc -> if Component.junction_at comp c <> None then (c, s, l) :: acc else acc)
    hits []
  |> List.sort (fun (a, _, _) (b, _, _) -> Coord.compare a b)

let bottleneck_junctions lay =
  match Component.extract lay with
  | Error _ -> []
  | Ok comp -> cut_junctions comp (Graph.build comp)

let max_reported_bottlenecks = 5

type static = {
  errors : F.t list;
  warnings : F.t list;
  hints : F.t list;
  shape : (int * int) option;
}

let split found =
  let only sev = List.filter (fun f -> f.F.severity = sev) found in
  (only F.Error, only F.Warning, only F.Hint)

(* [merge]'s order (fabric_check.mli) needs the static warnings as: the
   folded bottleneck count, the reported bottlenecks last-first, then
   [dead-end]. *)
let static_of_built comp graph =
  let errors, warnings, hints = split (Lint.structural comp graph) in
  let bottlenecks = cut_junctions comp graph in
  let nb = List.length bottlenecks in
  let reported =
    List.filteri (fun i _ -> i < max_reported_bottlenecks) bottlenecks
    |> List.map (fun (c, s, l) ->
           F.make ~pass ~kind:"bottleneck" ~loc:(F.Cell c)
             ~extra:[ ("side_a", Ion_util.Json.Int s); ("side_b", Ion_util.Json.Int l) ]
             F.Warning
             "junction %s is a cut vertex: all traffic between %d and %d traps serializes through it"
             (Coord.to_string c) s l)
  in
  let further =
    if nb > max_reported_bottlenecks then
      [
        F.make ~pass ~kind:"bottleneck" F.Warning "%d further cut-vertex junction(s) not listed"
          (nb - max_reported_bottlenecks);
      ]
    else []
  in
  {
    errors;
    warnings = further @ List.rev reported @ warnings;
    hints;
    shape = Some (Array.length (Component.traps comp), Array.length (Component.segments comp));
  }

let only_error f = { errors = [ f ]; warnings = []; hints = []; shape = None }

let static_of = function
  | Ok (comp, graph) -> static_of_built comp graph
  | Error msg -> only_error (F.make ~pass ~kind:"malformed" F.Error "%s" msg)

let static_result = function
  | Ok lay -> static_of (Result.map (fun comp -> (comp, Graph.build comp)) (Component.extract lay))
  | Error msg -> only_error (F.make ~pass ~kind:"parse-error" F.Error "%s" msg)

let merge ?num_qubits ?(channel_capacity = 2) st =
  match (st.shape, num_qubits) with
  | None, _ | _, None -> st.errors @ st.warnings @ st.hints
  | Some (ntraps, nseg), Some nq ->
      let trap_error, tight = Lint.capacity_findings ~num_qubits:nq ~traps:ntraps in
      let transit = channel_capacity * nseg in
      let transit =
        if nseg > 0 && nq > transit then
          Some
            (F.make ~pass ~kind:"transit-capacity"
               ~extra:[ ("capacity", Ion_util.Json.Int transit); ("segments", Ion_util.Json.Int nseg) ]
               F.Warning
               "channels hold at most %d ions in transit (capacity %d x %d segments) but the program has %d qubits: transport serializes"
               transit channel_capacity nseg nq)
        else None
      in
      Option.to_list trap_error @ st.errors
      @ Option.to_list transit @ st.warnings @ Option.to_list tight
      @ st.hints

let check_result ?num_qubits ?channel_capacity r =
  merge ?num_qubits ?channel_capacity (static_result r)

let check ?num_qubits ?channel_capacity lay = check_result ?num_qubits ?channel_capacity (Ok lay)
