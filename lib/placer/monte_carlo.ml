(* One forward run per start: MVFB's local search capped at one run never
   reaches its backward step. *)
let search ?pool ?prescreen ?max_evals ?out_of_time ~seed ~runs ~evaluate comp ~num_qubits =
  Search.multistart ?pool ?prescreen ?max_evals ?out_of_time ~seed ~starts:runs
    (Mvfb.search_seed ~patience:1 ~max_runs_per_seed:1 ~forward:evaluate ~backward:evaluate)
    comp ~num_qubits
  |> Result.map (fun o -> { o with Search.runs })
