module Graph = Fabric.Graph

type net = { net_id : int; src : Graph.node; dst : Graph.node }

type outcome = {
  routes : (int * Path.t) list;
  iterations : int;
  overused : int;
  searches : int;
}

type error =
  | No_route of { net_id : int; src : Graph.node; dst : Graph.node; iteration : int }
  | Bad_parameters of string

let string_of_error = function
  | No_route { net_id; src; dst; iteration } ->
      Printf.sprintf "Pathfinder: net %d has no route (node %d -> node %d, iteration %d)" net_id
        src dst iteration
  | Bad_parameters msg -> Printf.sprintf "Pathfinder.route_all: %s" msg

(* worst [users - capacity] over the resources some route crosses *)
let max_overuse graph ~capacity routes =
  let users = Array.make (Fabric.Component.num_resources (Graph.component graph)) 0 in
  List.iter (fun (_, path) -> Path.iter_resources (fun r -> users.(r) <- users.(r) + 1) path) routes;
  let worst = ref 0 in
  Array.iteri (fun r n -> if n > 0 then worst := max !worst (n - capacity r)) users;
  !worst

(* The negotiation schedule of reference [3]: at most [max_iterations]
   rounds; round [i]'s present-congestion penalty is scaled by
   [1 + present_factor * i]; every round a resource ends overused adds
   [history_increment] to its history cost. *)
let max_iterations = 30
let present_factor = 0.5
let history_increment = 1.0

(* Occupancy of the CURRENT routes, maintained incrementally — never
   rebuilt.  All negotiation state is flat arrays indexed by the resource
   id ({!Fabric.Component.resource}).  [overused] is the
   live set of resources above capacity (bitmap + count).  [weights] holds
   the negotiation weight for every CSR edge: a resource's edges are
   rewritten when its occupancy or history changes, and every resource at
   capacity when the round (and the present factor) advances. *)
type state = {
  graph : Graph.t;
  capacity : Fabric.Component.resource -> int;
  history : float array;
  occupancy : int array;
  overused : bool array;
  routes : (int, Path.t) Hashtbl.t;
  weights : float array;
  mutable overused_count : int;
  mutable iteration : int;
}

(* (base + history)·(1 + over·p_fac) on [r]'s edges, all of base cost 1 *)
let refresh st r =
  let over = max 0 (st.occupancy.(r) + 1 - st.capacity r) in
  let p_fac = 1.0 +. (present_factor *. float_of_int st.iteration) in
  let w = (1.0 +. st.history.(r)) *. (1.0 +. (float_of_int over *. p_fac)) in
  let g = st.graph in
  for k = Graph.resource_edges_start g r to Graph.resource_edges_stop g r - 1 do
    st.weights.(Graph.resource_edge g k) <- w
  done

let create graph ~turn_cost ~capacity =
  let nres = Fabric.Component.num_resources (Graph.component graph) in
  let st =
    {
      graph;
      capacity;
      history = Array.make nres 0.0;
      occupancy = Array.make nres 0;
      overused = Array.make nres false;
      routes = Hashtbl.create 16;
      weights = Lower_bound.base_weights graph ~turn_cost;
      overused_count = 0;
      iteration = 0;
    }
  in
  for r = 0 to nres - 1 do
    refresh st r
  done;
  st

let weights st = st.weights

(* [d] = 1 places [path], -1 rips it up *)
let shift st path d =
  for i = 0 to Path.num_resources path - 1 do
    let r = Path.resource path i in
    let after = st.occupancy.(r) + d in
    if after < 0 then invalid_arg "Pathfinder: negative occupancy — a net was ripped up twice";
    st.occupancy.(r) <- after;
    let over = after > st.capacity r in
    if over <> st.overused.(r) then begin
      st.overused.(r) <- over;
      st.overused_count <- (st.overused_count + if over then 1 else -1)
    end;
    refresh st r
  done

let rip st net_id = Option.iter (fun old -> shift st old (-1)) (Hashtbl.find_opt st.routes net_id)

let place st net_id path =
  Hashtbl.replace st.routes net_id path;
  shift st path 1

(* a net is dirty when its current route crosses an overused resource *)
let dirty st net =
  let path = Hashtbl.find st.routes net.net_id in
  let rec crosses i =
    i < Path.num_resources path
    && (st.overused.(Path.resource path i) || crosses (i + 1))
  in
  crosses 0

let next_iteration st =
  st.iteration <- st.iteration + 1;
  for r = 0 to Array.length st.occupancy - 1 do
    if st.occupancy.(r) >= st.capacity r then refresh st r
  done

(* history penalties on the still-overused resources *)
let add_history st =
  for r = 0 to Array.length st.overused - 1 do
    if st.overused.(r) then begin
      st.history.(r) <- st.history.(r) +. history_increment;
      refresh st r
    end
  done

let route_all graph ?(turn_cost = 10.0) ?cache ?cancel ~capacity nets =
  if not (turn_cost >= 0.0) then Error (Bad_parameters "negative or NaN turn cost")
  else begin
    (* The cache supplies the per-destination lower-bound tables guiding
       every search; a caller-owned cache carries them across calls (wave
       levels).  A private one still shares tables between the nets of this
       call — gates contribute two nets to the same destination trap. *)
    let cache = match cache with Some c -> c | None -> Route_cache.create () in
    Route_cache.for_graph cache graph;
    let workspace = Workspace.domain_local () in
    let st = create graph ~turn_cost ~capacity in
    let searches = ref 0 in
    (* One net's search: lower-bound-guided A* under the live negotiation
       weights (admissible: present/history penalties only add to the base
       cost the tables price). *)
    let route net =
      incr searches;
      let lb = Route_cache.lower_bound cache graph ~turn_cost ~dst:net.dst in
      Dijkstra.run_into ~heuristic:lb workspace graph ~weights:st.weights ~src:net.src
        ~dst:net.dst;
      Path.of_workspace workspace graph ~src:net.src ~dst:net.dst
    in
    let error = ref None in
    let converged = ref false in
    (* cancellation checkpoint: one poll per negotiation round, so an
       expired deadline aborts between rip-up/re-route sweeps (the closure
       raises; see Engine.run's cancel for the contract) *)
    let checkpoint = match cancel with Some f -> f | None -> Fun.const () in
    while (not !converged) && !error = None && st.iteration < max_iterations do
      checkpoint ();
      next_iteration st;
      (* Iteration 1 routes everything.  Later iterations rip up and
         re-route only the dirty nets, in input order.  An overused resource
         always lies on some current route, so the worklist is never empty
         before convergence. *)
      let worklist = if st.iteration = 1 then nets else List.filter (dirty st) nets in
      List.iter
        (fun net ->
          if !error = None then begin
            rip st net.net_id;
            match route net with
            | None ->
                error :=
                  Some
                    (No_route
                       { net_id = net.net_id; src = net.src; dst = net.dst; iteration = st.iteration })
            | Some path -> place st net.net_id path
          end)
        worklist;
      if !error = None then begin
        (* convergence is "overused set empty", straight off the
           maintained state *)
        if st.overused_count = 0 then converged := true else add_history st
      end
    done;
    match !error with
    | Some e -> Error e
    | None ->
        let final = List.map (fun net -> (net.net_id, Hashtbl.find st.routes net.net_id)) nets in
        Ok
          {
            routes = final;
            iterations = st.iteration;
            overused = st.overused_count;
            searches = !searches;
          }
  end
