(* Row a is trap a's lower-bound table sampled at the trap nodes: the
   router's per-destination sweeps and these trap-to-trap tables are the
   same machinery (Lower_bound owns the base-weight definition), and the
   fabric graph's base-weight symmetry makes from-a and to-a identical.
   A row is swept by its first reader and published through its cell; an
   empty array marks a row not built yet. *)
type t = {
  graph : Fabric.Graph.t;
  n : int;
  turn_cost : float;  (* the turn-edge weight the tables were built at *)
  weights : float array;  (* base weight per CSR edge, shared by every sweep *)
  trap_nodes : int array;  (* graph node of each trap *)
  rows : float array Atomic.t array;  (* row = source trap, move units *)
  dense : (float array * int array) option Atomic.t;  (* [tables], once built *)
}

let num_traps t = t.n
let turn_cost t = t.turn_cost

let build graph ~turn_cost =
  if turn_cost < 0.0 || Float.is_nan turn_cost then
    invalid_arg "Estimator.Distance.build: turn cost must be non-negative";
  let n = Array.length (Fabric.Component.traps (Fabric.Graph.component graph)) in
  {
    graph;
    n;
    turn_cost;
    weights = Router.Lower_bound.base_weights graph ~turn_cost;
    trap_nodes = Array.init n (Fabric.Graph.trap_node graph);
    rows = Array.init n (fun _ -> Atomic.make [||]);
    dense = Atomic.make None;
  }

(* Racing domains sweep equal rows; the first to publish wins and the
   others adopt its row, so every reader sees one array per trap. *)
let fill t a =
  let row =
    Router.Dijkstra.distances_at (Router.Workspace.domain_local ()) t.graph ~weights:t.weights
      ~src:t.trap_nodes.(a) ~nodes:t.trap_nodes
  in
  if Atomic.compare_and_set t.rows.(a) [||] row then row else Atomic.get t.rows.(a)

let row t a =
  let r = Atomic.get t.rows.(a) in
  if Array.length r > 0 then r else fill t a

let between t a b = (row t a).(b)

let rows_built t =
  Array.fold_left (fun k cell -> if Array.length (Atomic.get cell) > 0 then k + 1 else k) 0 t.rows

(* Minimize the slower operand's travel; break ties toward the least total
   travel, then the lowest trap id, so the meeting trap is a pure function
   of the fabric.  A disconnected pair has no finite meet and gets the
   lower id. *)
let scan ra rb a b =
  let best = ref (-1) and best_mk = ref infinity and best_sum = ref infinity in
  for m = 0 to Array.length ra - 1 do
    let da = ra.(m) and db = rb.(m) in
    let mk = Float.max da db and sum = da +. db in
    if mk < !best_mk || (mk = !best_mk && sum < !best_sum) then begin
      best := m;
      best_mk := mk;
      best_sum := sum
    end
  done;
  if !best < 0 then Int.min a b else !best

let meet t a b = if a = b then a else scan (row t a) (row t b) a b

let tables t =
  match Atomic.get t.dense with
  | Some d -> d
  | None ->
      let n = t.n in
      let rows = Array.init n (row t) in
      let dist = Array.make (n * n) infinity and meet_tbl = Array.make (n * n) 0 in
      for a = 0 to n - 1 do
        Array.blit rows.(a) 0 dist (a * n) n;
        meet_tbl.((a * n) + a) <- a;
        for b = a + 1 to n - 1 do
          let m = scan rows.(a) rows.(b) a b in
          meet_tbl.((a * n) + b) <- m;
          meet_tbl.((b * n) + a) <- m
        done
      done;
      let d = (dist, meet_tbl) in
      if Atomic.compare_and_set t.dense None (Some d) then d
      else Option.get (Atomic.get t.dense)
