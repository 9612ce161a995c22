type direction = Search.direction = Forward | Backward

(* The paper's stopping rule: a seed's local search ends after this many
   consecutive runs without improvement. *)
let patience = 3

(* One seed's local forward/backward search.  Given its initial placement
   the search is deterministic (no further randomness), so seeds run
   sequentially or fan out on a domain pool with identical results, and
   seeds sharing an initial placement can share one search. *)
let search_seed ~max_runs_per_seed ~forward ~backward initial =
  let best = ref None and latencies = ref [] and runs = ref 0 and error = ref None in
  let local_best = ref Float.infinity and no_improve = ref 0 in
  let searching () = !error = None && !no_improve < patience && !runs < max_runs_per_seed in
  let consider direction placement (r : Simulator.Engine.score) =
    let latency = r.Simulator.Engine.latency in
    latencies := latency :: !latencies;
    incr runs;
    (match !best with
    | Some (_, _, (b : Simulator.Engine.score)) when not (latency < b.Simulator.Engine.latency) -> ()
    | _ -> best := Some (direction, placement, r));
    if latency < !local_best -. 1e-9 then begin
      local_best := latency;
      no_improve := 0
    end
    else incr no_improve
  in
  (* local neighborhood search around one random center placement *)
  let placement = ref initial in
  while searching () do
    match forward !placement with
    | Error e -> error := Some e
    | Ok rf -> (
        consider Forward !placement rf;
        if searching () then
          match backward rf.Simulator.Engine.final_placement with
          | Error e -> error := Some e
          | Ok rb ->
              consider Backward rf.Simulator.Engine.final_placement rb;
              placement := rb.Simulator.Engine.final_placement)
  done;
  match (!error, !best) with
  | Some e, _ -> Error e
  | None, None -> Error (Simulator.Engine.Invalid "Mvfb.search: no successful run")
  | None, Some (direction, placement, result) ->
      Ok
        {
          Search.placement;
          result;
          direction;
          runs = !runs;
          evaluations = !runs;
          latencies = List.rev !latencies;
          truncated = false;
        }

let search ?pool ?prescreen ~seed ~m ?(max_runs_per_seed = 64) ~forward ~backward comp ~num_qubits =
  Search.multistart ?pool ?prescreen ~seed ~starts:m
    (search_seed ~max_runs_per_seed ~forward ~backward)
    comp ~num_qubits
