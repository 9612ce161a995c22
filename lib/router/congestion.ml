module Graph = Fabric.Graph

(* the live Eq. 2 weight array of {!track_weights}, kept equal to [weight]
   on every edge by rewriting a resource's edges when its count changes *)
type live = { graph : Graph.t; weights : float array }

type t = {
  chan_cap : int;
  junc_cap : int;
  nsegs : int; (* resources below [nsegs] are segments *)
  users : int array; (* per resource id *)
  (* O(1) mirrors of [users], maintained by acquire/release: the engine
     asks "is anything in flight?" / "do live weights equal base weights?"
     once per route, and folding the array there would dominate. *)
  mutable seg_total : int;
  mutable junc_total : int;
  mutable junc_saturated : int;
  mutable live : live option;
}

let create comp ~channel_capacity ~junction_capacity =
  if channel_capacity <= 0 || junction_capacity <= 0 then
    invalid_arg "Congestion.create: capacities must be positive";
  {
    chan_cap = channel_capacity;
    junc_cap = junction_capacity;
    nsegs = Array.length (Fabric.Component.segments comp);
    users = Array.make (Fabric.Component.num_resources comp) 0;
    seg_total = 0;
    junc_total = 0;
    junc_saturated = 0;
    live = None;
  }

let channel_capacity t = t.chan_cap
let junction_capacity t = t.junc_cap

let users t r = t.users.(r)

let capacity t r = if r < t.nsegs then t.chan_cap else t.junc_cap

let is_free t r = users t r < capacity t r

let pp_resource t ppf r =
  if r < t.nsegs then Format.fprintf ppf "segment#%d" r
  else Format.fprintf ppf "junction#%d" (r - t.nsegs)

(* Rewrite the tracked weights of resource [r] after its count changed.
   The Eq. 2 formula is inlined rather than calling [weight]: a float
   returned across a call is boxed, one block per edge. *)
let refresh t r =
  match t.live with
  | None -> ()
  | Some { graph; weights } ->
      let n = t.users.(r) in
      let w =
        if n >= capacity t r then Float.infinity
        else if r < t.nsegs then float_of_int (n + 1)
        else 1.0
      in
      for k = Graph.resource_edges_start graph r to Graph.resource_edges_stop graph r - 1 do
        weights.(Graph.resource_edge graph k) <- w
      done

let acquire t r =
  if not (is_free t r) then
    invalid_arg (Format.asprintf "Congestion.acquire: %a is at capacity" (pp_resource t) r);
  t.users.(r) <- t.users.(r) + 1;
  if r < t.nsegs then begin
    t.seg_total <- t.seg_total + 1;
    refresh t r
  end
  else begin
    t.junc_total <- t.junc_total + 1;
    if t.users.(r) = t.junc_cap then begin
      t.junc_saturated <- t.junc_saturated + 1;
      refresh t r
    end
  end

let release t r =
  if users t r <= 0 then
    invalid_arg (Format.asprintf "Congestion.release: %a has no users" (pp_resource t) r);
  let was_saturated = t.users.(r) = t.junc_cap in
  t.users.(r) <- t.users.(r) - 1;
  if r < t.nsegs then begin
    t.seg_total <- t.seg_total - 1;
    refresh t r
  end
  else begin
    t.junc_total <- t.junc_total - 1;
    if was_saturated then begin
      t.junc_saturated <- t.junc_saturated - 1;
      refresh t r
    end
  end

let weight t ~turn_cost (kind : Fabric.Graph.edge_kind) =
  match kind with
  | Fabric.Graph.Chan r ->
      let n = t.users.(r) in
      if n >= t.chan_cap then Float.infinity else float_of_int (n + 1)
  | Fabric.Graph.Junc r -> if t.users.(r) >= t.junc_cap then Float.infinity else 1.0
  | Fabric.Graph.Turn _ -> turn_cost
  | Fabric.Graph.Tap _ -> 1.0

let track_weights t ~turn_cost graph weights =
  if Array.length weights < Graph.num_edges graph then
    invalid_arg "Congestion.track_weights: weight array too short";
  t.live <- Some { graph; weights };
  for i = 0 to Graph.num_edges graph - 1 do
    match Graph.succ_kind graph i with
    | Graph.Turn _ -> weights.(i) <- turn_cost
    | Graph.Tap _ -> weights.(i) <- 1.0
    | Graph.Chan _ | Graph.Junc _ -> ()
  done;
  for r = 0 to Array.length t.users - 1 do
    refresh t r
  done

let total_in_flight t = t.seg_total + t.junc_total

(* Channel weight is (n+1), so ANY segment user moves it off the base cost;
   junction weight stays 1.0 strictly below capacity, so only saturation
   moves it.  Occupied-but-unsaturated junctions are therefore compatible
   with base weights. *)
let base_weights_active t = t.seg_total = 0 && t.junc_saturated = 0
