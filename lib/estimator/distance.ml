(* A view of one Lower_bound store at the trap nodes: trap a's row is the
   router's table toward trap a, and the fabric graph's base-weight
   symmetry makes from-a and to-a identical.  The store sweeps a table on
   its first read, whichever layer (this view, the engine's A*, PathFinder)
   reads it first. *)
type t = {
  store : Router.Lower_bound.t;
  trap_nodes : int array;  (* graph node of each trap *)
  dense : (float array * int array) option Atomic.t;  (* [tables], once built *)
}

let build graph ~turn_cost =
  let n = Array.length (Fabric.Component.traps (Fabric.Graph.component graph)) in
  {
    store = Router.Lower_bound.create graph ~turn_cost;
    trap_nodes = Array.init n (Fabric.Graph.trap_node graph);
    dense = Atomic.make None;
  }

let num_traps t = Array.length t.trap_nodes
let store t = t.store
let trap_nodes t = t.trap_nodes
let row t a = Router.Lower_bound.toward t.store t.trap_nodes.(a)
let between t a b = (row t a).(t.trap_nodes.(b))

(* Minimize the slower operand's travel; break ties toward the least total
   travel, then the lowest trap id, so the meeting trap is a pure function
   of the fabric.  A disconnected pair has no finite meet and gets the
   lower id. *)
let scan nodes ra rb a b =
  let best = ref (-1) and best_mk = ref infinity and best_sum = ref infinity in
  for m = 0 to Array.length nodes - 1 do
    let v = nodes.(m) in
    let da = ra.(v) and db = rb.(v) in
    let mk = Float.max da db and sum = da +. db in
    if mk < !best_mk || (mk = !best_mk && sum < !best_sum) then begin
      best := m;
      best_mk := mk;
      best_sum := sum
    end
  done;
  if !best < 0 then Int.min a b else !best

let meet t a b = if a = b then a else scan t.trap_nodes (row t a) (row t b) a b

let tables t =
  match Atomic.get t.dense with
  | Some d -> d
  | None ->
      let n = num_traps t and nodes = t.trap_nodes in
      let rows = Array.init n (row t) in
      let dist = Array.make (n * n) infinity and meet_tbl = Array.make (n * n) 0 in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          dist.((a * n) + b) <- rows.(a).(nodes.(b))
        done;
        meet_tbl.((a * n) + a) <- a;
        for b = a + 1 to n - 1 do
          let m = scan nodes rows.(a) rows.(b) a b in
          meet_tbl.((a * n) + b) <- m;
          meet_tbl.((b * n) + a) <- m
        done
      done;
      let d = (dist, meet_tbl) in
      if Atomic.compare_and_set t.dense None (Some d) then d
      else Option.get (Atomic.get t.dense)
