module Graph = Fabric.Graph

(* the live Eq. 2 weight array of {!track_weights}, kept equal to [weight]
   on every edge by rewriting a resource's edges when its count changes *)
type live = { graph : Graph.t; weights : float array }

type t = {
  chan_cap : int;
  junc_cap : int;
  seg_users : int array;
  junc_users : int array;
  (* O(1) mirrors of the arrays, maintained by acquire/release: the engine
     asks "is anything in flight?" / "do live weights equal base weights?"
     once per route, and folding the arrays there would dominate. *)
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
    seg_users = Array.make (Array.length (Fabric.Component.segments comp)) 0;
    junc_users = Array.make (Array.length (Fabric.Component.junctions comp)) 0;
    seg_total = 0;
    junc_total = 0;
    junc_saturated = 0;
    live = None;
  }

let channel_capacity t = t.chan_cap
let junction_capacity t = t.junc_cap

let users t r =
  if Resource.is_segment r then t.seg_users.(Resource.id r) else t.junc_users.(Resource.id r)

let capacity t r = if Resource.is_segment r then t.chan_cap else t.junc_cap

let is_free t r = users t r < capacity t r

(* Rewrite the tracked weights of segment [s] / junction [j] after its
   count changed.  The Eq. 2 formula is inlined rather than calling
   [weight]: a float returned across a call is boxed, one block per edge. *)
let refresh_seg t s =
  match t.live with
  | None -> ()
  | Some { graph; weights } ->
      let n = t.seg_users.(s) in
      let w = if n >= t.chan_cap then Float.infinity else float_of_int (n + 1) in
      for k = Graph.chan_edges_start graph s to Graph.chan_edges_stop graph s - 1 do
        weights.(Graph.resource_edge graph k) <- w
      done

let refresh_junc t j =
  match t.live with
  | None -> ()
  | Some { graph; weights } ->
      let w = if t.junc_users.(j) >= t.junc_cap then Float.infinity else 1.0 in
      for k = Graph.junc_edges_start graph j to Graph.junc_edges_stop graph j - 1 do
        weights.(Graph.resource_edge graph k) <- w
      done

let acquire t r =
  if not (is_free t r) then
    invalid_arg (Format.asprintf "Congestion.acquire: %a is at capacity" Resource.pp r);
  if Resource.is_segment r then begin
    let s = Resource.id r in
    t.seg_users.(s) <- t.seg_users.(s) + 1;
    t.seg_total <- t.seg_total + 1;
    refresh_seg t s
  end
  else begin
    let j = Resource.id r in
    t.junc_users.(j) <- t.junc_users.(j) + 1;
    t.junc_total <- t.junc_total + 1;
    if t.junc_users.(j) = t.junc_cap then begin
      t.junc_saturated <- t.junc_saturated + 1;
      refresh_junc t j
    end
  end

let release t r =
  if users t r <= 0 then
    invalid_arg (Format.asprintf "Congestion.release: %a has no users" Resource.pp r);
  if Resource.is_segment r then begin
    let s = Resource.id r in
    t.seg_users.(s) <- t.seg_users.(s) - 1;
    t.seg_total <- t.seg_total - 1;
    refresh_seg t s
  end
  else begin
    let j = Resource.id r in
    let was_saturated = t.junc_users.(j) = t.junc_cap in
    t.junc_users.(j) <- t.junc_users.(j) - 1;
    t.junc_total <- t.junc_total - 1;
    if was_saturated then begin
      t.junc_saturated <- t.junc_saturated - 1;
      refresh_junc t j
    end
  end

let weight t ~turn_cost (kind : Fabric.Graph.edge_kind) =
  match kind with
  | Fabric.Graph.Chan s ->
      let n = t.seg_users.(s) in
      if n >= t.chan_cap then Float.infinity else float_of_int (n + 1)
  | Fabric.Graph.Junc j -> if t.junc_users.(j) >= t.junc_cap then Float.infinity else 1.0
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
  for s = 0 to Array.length t.seg_users - 1 do
    refresh_seg t s
  done;
  for j = 0 to Array.length t.junc_users - 1 do
    refresh_junc t j
  done

let total_in_flight t = t.seg_total + t.junc_total

(* Channel weight is (n+1), so ANY segment user moves it off the base cost;
   junction weight stays 1.0 strictly below capacity, so only saturation
   moves it.  Occupied-but-unsaturated junctions are therefore compatible
   with base weights. *)
let base_weights_active t = t.seg_total = 0 && t.junc_saturated = 0
