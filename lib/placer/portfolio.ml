(* Race independent placement strategies across a domain pool and keep the
   best routed result.  Strategies fan out through Domain_pool.map_seeded
   (the shared seeded fan-out also behind fault campaigns and the service
   scheduler); each receives the per-index derived stream but may ignore it
   and seed itself, so the race is a pure function of (strategy list, seed):
   order is preserved, the winner is the lowest (latency, list index), and
   the outcome is bit-identical at any job count. *)

type strategy_outcome = {
  placement : int array;
  result : Simulator.Engine.result;
  direction : Mvfb.direction;
  runs : int;
  evaluations : int;
  latencies : float list;
  truncated : bool;
}

type strategy = {
  name : string;
  run : rng:Ion_util.Rng.t -> (strategy_outcome, Simulator.Engine.error) result;
}

type entry = {
  entry_name : string;
  entry_outcome : (strategy_outcome, Simulator.Engine.error) result;
}

type outcome = { winner : string; best : strategy_outcome; entries : entry list }

let race ?pool ~seed strategies =
  match strategies with
  | [] -> Error (Simulator.Engine.Invalid "Portfolio.race: no strategies")
  | _ ->
      let arr = Array.of_list strategies in
      let jobs = match pool with Some p -> Ion_util.Domain_pool.jobs p | None -> 1 in
      let outcomes =
        Ion_util.Domain_pool.map_seeded ?pool ~jobs ~seed
          (fun ~index:_ ~rng s -> s.run ~rng)
          arr
      in
      let entries =
        Array.to_list
          (Array.map2
             (fun s o -> { entry_name = s.name; entry_outcome = o })
             arr outcomes)
      in
      let best = ref None in
      Array.iteri
        (fun i o ->
          match o with
          | Error _ -> ()
          | Ok r -> (
              match !best with
              | Some (_, br) when br.result.Simulator.Engine.latency
                                  <= r.result.Simulator.Engine.latency ->
                  ()
              | _ -> best := Some (i, r)))
        outcomes;
      (match !best with
      | Some (i, r) -> Ok { winner = arr.(i).name; best = r; entries }
      | None -> (
          (* every strategy failed: surface the first failure *)
          match outcomes.(0) with
          | Error e -> Error e
          | Ok _ -> assert false))
