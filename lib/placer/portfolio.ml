(* Race independent placement strategies across a domain pool and keep the
   best routed result.  Every strategy seeds itself, so the race is a pure
   function of the strategy list: order is preserved, the winner is the
   lowest (latency, list index), and the outcome is bit-identical at any
   job count. *)

type strategy = {
  name : string;
  run : unit -> (Search.outcome, Simulator.Engine.error) result;
}

type entry = {
  entry_name : string;
  entry_outcome : (Search.outcome, Simulator.Engine.error) result;
}

type outcome = { best : Search.outcome; entries : entry list }

let race ?pool strategies =
  match strategies with
  | [] -> Error (Simulator.Engine.Invalid "Portfolio.race: no strategies")
  | _ ->
      let pool = Option.value pool ~default:Ion_util.Domain_pool.sequential in
      let entries =
        Array.to_list
          (Ion_util.Domain_pool.map pool
             (fun s -> { entry_name = s.name; entry_outcome = s.run () })
             (Array.of_list strategies))
      in
      let best =
        List.fold_left
          (fun best e ->
            match (best, e.entry_outcome) with
            | Some (b : Search.outcome), Ok (r : Search.outcome)
              when b.result.Simulator.Engine.latency <= r.result.Simulator.Engine.latency ->
                best
            | _, Ok r -> Some r
            | _, Error _ -> best)
          None entries
      in
      (match (best, entries) with
      | Some best, _ -> Ok { best; entries }
      | None, { entry_outcome = Error e; _ } :: _ -> Error e
      | None, _ -> assert false (* every strategy failed: surface the first failure *))
