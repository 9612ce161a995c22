type t = {
  n : int;
  turn_cost : float;  (* the turn-edge weight the tables were built at *)
  dist : float array;  (* n*n, move units, row = source trap *)
  meet_tbl : int array;  (* n*n, meeting trap per operand pair *)
}

let num_traps t = t.n
let turn_cost t = t.turn_cost
let tables t = (t.dist, t.meet_tbl)
let between t a b = t.dist.((a * t.n) + b)
let meet t a b = t.meet_tbl.((a * t.n) + b)

let build graph ~turn_cost =
  if turn_cost < 0.0 || Float.is_nan turn_cost then
    invalid_arg "Estimator.Distance.build: turn cost must be non-negative";
  let comp = Fabric.Graph.component graph in
  let n = Array.length (Fabric.Component.traps comp) in
  let ws = Router.Workspace.create () in
  (* Row a is trap a's lower-bound table sampled at the trap nodes: the
     router's per-destination sweeps and these trap-to-trap tables are the
     same machinery (Lower_bound owns the base-weight definition), and the
     fabric graph's base-weight symmetry makes from-a and to-a identical.
     The base weights are tabulated once for all n sweeps. *)
  let weights = Router.Lower_bound.base_weights graph ~turn_cost in
  let dist = Array.make (n * n) infinity in
  for a = 0 to n - 1 do
    let row = Router.Dijkstra.distances ~workspace:ws graph ~weights ~src:(Fabric.Graph.trap_node graph a) in
    for b = 0 to n - 1 do
      dist.((a * n) + b) <- row.(Fabric.Graph.trap_node graph b)
    done
  done;
  let meet_tbl = Array.make (n * n) 0 in
  for a = 0 to n - 1 do
    meet_tbl.((a * n) + a) <- a;
    for b = a + 1 to n - 1 do
      (* Minimize the slower operand's travel; break ties toward the least
         total travel, then the lowest trap id, so the table is a pure
         function of the fabric. *)
      let best = ref (-1) and best_mk = ref infinity and best_sum = ref infinity in
      for m = 0 to n - 1 do
        let da = dist.((a * n) + m) and db = dist.((b * n) + m) in
        let mk = Float.max da db and sum = da +. db in
        if mk < !best_mk || (mk = !best_mk && sum < !best_sum) then begin
          best := m;
          best_mk := mk;
          best_sum := sum
        end
      done;
      let best = if !best < 0 then a (* no finite meet: disconnected pair *) else !best in
      meet_tbl.((a * n) + b) <- best;
      meet_tbl.((b * n) + a) <- best
    done
  done;
  { n; turn_cost; dist; meet_tbl }
