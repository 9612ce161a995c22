module Coord = Ion_util.Coord
open Qasm

type level_stat = {
  gates : int;
  routed_nets : int;
  duration_us : float;
  pathfinder_iterations : int;
  overused : int;
}

type outcome = { latency : float; levels : level_stat list; final_placement : int array }

let unit_delay instr = if Instr.is_gate instr then 1.0 else 0.0

(* gate instruction ids grouped by ASAP level, ascending.  A logical level
   may hold two gates sharing a control qubit (the QIDG treats controls as
   reads), but one ion cannot visit two traps in one wave, so each level is
   further split into operand-disjoint sub-levels. *)
let levels_of dag =
  let asap = Dag.asap_times ~delay:unit_delay dag in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i start ->
      if Instr.is_gate (Dag.node dag i).Dag.instr then begin
        let key = int_of_float start in
        Hashtbl.replace tbl key (i :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
      end)
    asap;
  let split_disjoint gates =
    let sublevels = ref [] in
    List.iter
      (fun id ->
        let qs = Instr.qubits (Dag.node dag id).Dag.instr in
        let rec place = function
          | [] -> sublevels := !sublevels @ [ ref ([ id ], qs) ]
          | sub :: rest ->
              let ids, used = !sub in
              if List.exists (fun q -> List.mem q used) qs then place rest
              else sub := (id :: ids, qs @ used)
        in
        place !sublevels)
      gates;
    List.map (fun sub -> List.rev (fst !sub)) !sublevels
  in
  Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.concat_map (fun (_, gates) -> split_disjoint gates)

let map_unguarded ?placement ctx =
  let program = Mapper.program ctx in
  let comp = Mapper.component ctx in
  let graph = Mapper.graph ctx in
  let cfg = Mapper.config ctx in
  let tm = cfg.Config.timing in
  let policy = cfg.Config.qspr_policy in
  let nq = Program.num_qubits program in
  let placement =
    match placement with Some p -> Array.copy p | None -> Placer.Center.place comp ~num_qubits:nq
  in
  if Array.length placement <> nq then
    Error (Mapper.Invalid "Wave_mapper.map: placement length mismatch")
  else begin
    let traps = Fabric.Component.traps comp in
    let capacity r =
      if Router.Resource.is_segment r then policy.Simulator.Engine.channel_capacity
      else policy.Simulator.Engine.junction_capacity
    in
    let trap_pos tid = traps.(tid).Fabric.Component.tpos in
    let dag = Mapper.dag ctx in
    (* one cache across all wave levels: lower-bound tables and the
       congestion-free routes of earlier levels seed the later ones *)
    let cache = Router.Route_cache.create () in
    let error = ref None in
    let stats = ref [] in
    let clock = ref 0.0 in
    let occupants = Array.make (Array.length traps) [] in
    Array.iteri (fun q t -> occupants.(t) <- q :: occupants.(t)) placement;
    List.iter
      (fun level ->
        if !error = None then begin
          (* seat each 2q gate in its own trap *)
          let chosen = Hashtbl.create 8 in
          let nets = ref [] in
          let net_traps = Hashtbl.create 8 in
          let net_id = ref 0 in
          let max_gate = ref 0.0 in
          List.iter
            (fun id ->
              if !error = None then
                match (Dag.node dag id).Dag.instr with
                | Instr.Qubit_decl _ -> ()
                | Instr.Gate1 _ -> max_gate := Float.max !max_gate tm.Router.Timing.t_gate1
                | Instr.Gate2 (_, c, t) -> (
                    max_gate := Float.max !max_gate tm.Router.Timing.t_gate2;
                    let available tid =
                      (not (Hashtbl.mem chosen tid))
                      && List.for_all (fun q -> q = c || q = t) occupants.(tid)
                    in
                    let mid = Coord.midpoint (trap_pos placement.(c)) (trap_pos placement.(t)) in
                    match List.find_opt available (Fabric.Component.nearest_traps comp mid) with
                    | None ->
                        error :=
                          Some
                            (Mapper.Infeasible_placement
                               (Printf.sprintf "Wave_mapper.map: level cannot seat gate %d" id))
                    | Some target ->
                        Hashtbl.replace chosen target ();
                        List.iter
                          (fun q ->
                            if placement.(q) <> target then begin
                              Hashtbl.replace net_traps !net_id (placement.(q), target);
                              nets :=
                                {
                                  Router.Pathfinder.net_id = !net_id;
                                  src = Fabric.Graph.trap_node graph placement.(q);
                                  dst = Fabric.Graph.trap_node graph target;
                                }
                                :: !nets;
                              incr net_id
                            end;
                            (* leave the old trap, claim the new one *)
                            occupants.(placement.(q)) <- List.filter (( <> ) q) occupants.(placement.(q));
                            occupants.(target) <- q :: occupants.(target);
                            placement.(q) <- target)
                          [ c; t ]))
            level;
          match !error with
          | Some _ -> ()
          | None -> (
              let nets = List.rev !nets in
              match
                Router.Pathfinder.route_all graph
                  ~turn_cost:(Router.Timing.turn_cost_in_moves tm) ~cache
                  ?cancel:(Ion_util.Clock.guard cfg.Config.budget.Config.deadline)
                  ~capacity nets
              with
              | Error (Router.Pathfinder.No_route { net_id; iteration; _ }) ->
                  (* name the offending traps, not graph nodes — the net was
                     built here, so its endpoints are known exactly *)
                  let src_trap, dst_trap =
                    Option.value ~default:(-1, -1) (Hashtbl.find_opt net_traps net_id)
                  in
                  error := Some (Mapper.Unroutable { net_id; src_trap; dst_trap; iterations = iteration })
              | Error (Router.Pathfinder.Bad_parameters msg) -> error := Some (Mapper.Invalid msg)
              | Ok o ->
                  let max_route =
                    List.fold_left
                      (fun acc (_, p) -> Float.max acc (Router.Path.duration tm p))
                      0.0 o.Router.Pathfinder.routes
                  in
                  let duration = max_route +. !max_gate in
                  clock := !clock +. duration;
                  stats :=
                    {
                      gates = List.length level;
                      routed_nets = List.length nets;
                      duration_us = duration;
                      pathfinder_iterations = o.Router.Pathfinder.iterations;
                      overused = o.Router.Pathfinder.overused;
                    }
                    :: !stats)
        end)
      (levels_of dag);
    match !error with
    | Some e -> Error e
    | None -> Ok { latency = !clock; levels = List.rev !stats; final_placement = placement }
  end

(* the Pathfinder cancellation checkpoint raises; translate to the typed
   mapper error at this boundary, like the Mapper.map_* entry points do *)
let map ?placement ctx =
  try map_unguarded ?placement ctx
  with Ion_util.Clock.Expired { budget_ms } ->
    Error (Mapper.Deadline_exceeded { budget_ms })
