module Graph = Fabric.Graph

type net = { net_id : int; src : Graph.node; dst : Graph.node }

type outcome = {
  routes : (int * Path.t) list;
  iterations : int;
  overused : int;
  searches : int;
  seeded : int;
}

type error =
  | No_route of { net_id : int; src : Graph.node; dst : Graph.node; iteration : int }
  | Bad_parameters of string

let string_of_error = function
  | No_route { net_id; src; dst; iteration } ->
      Printf.sprintf "Pathfinder: net %d has no route (node %d -> node %d, iteration %d)" net_id
        src dst iteration
  | Bad_parameters msg -> Printf.sprintf "Pathfinder.route_all: %s" msg

(* occupancy bookkeeping over the distinct resources of each net's route *)
let usage_table routes =
  let tbl = Resource.Tbl.create 64 in
  List.iter
    (fun (_, path) ->
      Path.iter_resources
        (fun r -> Resource.Tbl.replace tbl r (1 + Option.value ~default:0 (Resource.Tbl.find_opt tbl r)))
        path)
    routes;
  tbl

let max_overuse _graph ~capacity routes =
  let tbl = usage_table routes in
  Resource.Tbl.fold (fun r users acc -> max acc (users - capacity r)) tbl 0

let route_all graph ?(max_iterations = 30) ?(present_factor = 0.5) ?(history_increment = 1.0)
    ?(turn_cost = 10.0) ?cache ?cancel ~capacity nets =
  if max_iterations < 1 then Error (Bad_parameters "max_iterations must be positive")
  else if present_factor < 0.0 || history_increment < 0.0 || turn_cost < 0.0 then
    Error (Bad_parameters "negative parameters")
  else begin
    (* The cache supplies the per-destination lower-bound tables guiding
       every search; a caller-owned cache additionally carries tables and
       congestion-free routes across calls (wave levels, placement
       candidates).  A private one still shares tables between the nets of
       this call — gates contribute two nets to the same destination trap. *)
    let cache = match cache with Some c -> c | None -> Route_cache.create () in
    Route_cache.for_graph cache graph;
    let workspace = Route_cache.workspace cache in
    (* Occupancy of the CURRENT routes, maintained incrementally — never
       rebuilt.  All negotiation state is flat arrays indexed by the packed
       resource int: [nres] bounds every packed value on this fabric
       (segment s -> 2s+1, junction j -> 2j).  [users] is the reverse index
       (resource -> nets whose current route crosses it; each net at most
       once, a path's footprint is distinct), [overused] the live set of
       resources above capacity (bitmap + count), and [at_capacity] counts
       resources whose next user would pay a present penalty — the
       negotiation weight equals the base weight exactly when it is zero and
       no history has accrued. *)
    let comp = Graph.component graph in
    let nres =
      2
      * Int.max
          (Array.length (Fabric.Component.segments comp))
          (Array.length (Fabric.Component.junctions comp))
      + 2
    in
    let history = Array.make nres 0.0 in
    let history_dirty = ref false in
    let routes : (int, Path.t) Hashtbl.t = Hashtbl.create 16 in
    let occupancy = Array.make nres 0 in
    let users : int list array = Array.make nres [] in
    let overused = Array.make nres false in
    let overused_count = ref 0 in
    let at_capacity = ref 0 in
    let cap_of r = capacity (Resource.of_int r) in
    let bump r d =
      let before = occupancy.(r) in
      let after = before + d in
      if after < 0 then
        invalid_arg "Pathfinder: negative occupancy — a net was ripped up twice";
      occupancy.(r) <- after;
      let cap = cap_of r in
      if before < cap && after >= cap then incr at_capacity
      else if before >= cap && after < cap then decr at_capacity;
      if after > cap then begin
        if not overused.(r) then begin
          overused.(r) <- true;
          incr overused_count
        end
      end
      else if overused.(r) then begin
        overused.(r) <- false;
        decr overused_count
      end
    in
    let rip net_id =
      match Hashtbl.find_opt routes net_id with
      | None -> ()
      | Some old ->
          for i = 0 to Path.num_resources old - 1 do
            let r = Resource.to_int (Path.resource old i) in
            bump r (-1);
            users.(r) <- List.filter (( <> ) net_id) users.(r)
          done
    in
    let place net_id path =
      Hashtbl.replace routes net_id path;
      for i = 0 to Path.num_resources path - 1 do
        let r = Resource.to_int (Path.resource path i) in
        bump r 1;
        users.(r) <- net_id :: users.(r)
      done
    in
    let searches = ref 0 and seeded = ref 0 in
    let iterations = ref 0 in
    let weight (kind : Graph.edge_kind) =
      let base = match kind with Graph.Turn _ -> turn_cost | _ -> 1.0 in
      let r = Resource.pack_of_edge kind in
      if r = Resource.none then base
      else begin
        let over = max 0 (occupancy.(r) + 1 - cap_of r) in
        let p_fac = 1.0 +. (present_factor *. float_of_int !iterations) in
        (base +. history.(r)) *. (1.0 +. (float_of_int over *. p_fac))
      end
    in
    (* One net's search: lower-bound-guided A* under the live negotiation
       weights (admissible: present/history penalties only add to the base
       cost the tables price).  While the live weights still equal the base
       weights — nothing at capacity, no history — the search is a pure
       function of (turn_cost, src, dst), so a caller-owned cache can seed
       it from an earlier call and absorb its result for later ones.  The
       seed substitutes verbatim for the search it skips: only exact
       replays, never merely-equal-cost ones. *)
    let route net =
      let clean = !at_capacity = 0 && not !history_dirty in
      let seed =
        if clean then
          Route_cache.find cache Route_cache.Guided ~turn_cost ~src:net.src ~dst:net.dst
        else None
      in
      match seed with
      | Some result ->
          incr seeded;
          result
      | None ->
          incr searches;
          let lb = Route_cache.lower_bound cache graph ~turn_cost ~dst:net.dst in
          Dijkstra.run_into ~heuristic:(Lower_bound.heuristic lb) workspace graph ~weight
            ~src:net.src ~dst:net.dst;
          let result = Path.of_workspace workspace graph ~src:net.src ~dst:net.dst in
          if clean then
            Route_cache.store cache Route_cache.Guided ~turn_cost ~src:net.src ~dst:net.dst result;
          result
    in
    let error = ref None in
    let converged = ref false in
    (* cancellation checkpoint: one poll per negotiation round, so an
       expired deadline aborts between rip-up/re-route sweeps (the closure
       raises; see Engine.run's cancel for the contract) *)
    let checkpoint = match cancel with Some f -> f | None -> Fun.const () in
    while (not !converged) && !error = None && !iterations < max_iterations do
      checkpoint ();
      incr iterations;
      (* Iteration 1 routes everything.  Later iterations rip up and
         re-route only the dirty nets — those whose current route crosses an
         overused resource (straight off the reverse index), in input order.
         An overused resource always has users, so the worklist is never
         empty before convergence. *)
      let worklist =
        if !iterations = 1 then nets
        else begin
          let dirty = Hashtbl.create 16 in
          for r = 0 to nres - 1 do
            if overused.(r) then List.iter (fun id -> Hashtbl.replace dirty id ()) users.(r)
          done;
          List.filter (fun net -> Hashtbl.mem dirty net.net_id) nets
        end
      in
      List.iter
        (fun net ->
          if !error = None then begin
            rip net.net_id;
            match route net with
            | None ->
                error :=
                  Some
                    (No_route
                       { net_id = net.net_id; src = net.src; dst = net.dst; iteration = !iterations })
            | Some path -> place net.net_id path
          end)
        worklist;
      if !error = None then begin
        (* history penalties on the still-overused resources; convergence is
           "overused set empty" — both straight off the maintained state *)
        if !overused_count = 0 then converged := true
        else begin
          history_dirty := true;
          for r = 0 to nres - 1 do
            if overused.(r) then history.(r) <- history.(r) +. history_increment
          done
        end
      end
    done;
    match !error with
    | Some e -> Error e
    | None ->
        let final = List.map (fun net -> (net.net_id, Hashtbl.find routes net.net_id)) nets in
        Ok
          {
            routes = final;
            iterations = !iterations;
            overused = !overused_count;
            searches = !searches;
            seeded = !seeded;
          }
  end
