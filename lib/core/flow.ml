type attempt = { m : int; latency_us : float; error_probability : float }

type outcome = {
  program : Qasm.Program.t;
  gates_removed : int;
  solution : Mapper.solution;
  attempts : attempt list;
  met_threshold : bool;
}

let run ?(noise = Noise.Model.default) ?(error_threshold = 0.05) ?(efforts = [ 5; 25; 100 ])
    ~fabric ?config program =
  if efforts = [] then Error "Flow.run: need at least one effort level"
  else begin
    let optimized = Qasm.Optimizer.optimize program in
    let gates_removed = Qasm.Program.gate_count program - Qasm.Program.gate_count optimized in
    match Mapper.create ~fabric ?config optimized with
    | Error _ as e -> e
    | Ok ctx ->
        let nq = Qasm.Program.num_qubits optimized in
        let rec escalate attempts best = function
          | [] -> (
              match best with
              | Some solution ->
                  Ok { program = optimized; gates_removed; solution; attempts = List.rev attempts; met_threshold = false }
              | None -> Error "Flow.run: no mapping attempt succeeded")
          | m :: rest -> (
              match Mapper.map Mvfb (Mapper.with_search (Config.with_m m) ctx) with
              | Error e -> Error (Mapper.error_to_string e)
              | Ok sol ->
                  let exposures = Noise.Exposure.of_trace ~num_qubits:nq sol.Mapper.trace in
                  let error_probability = Noise.Estimate.error_probability noise exposures in
                  let attempt = { m; latency_us = sol.Mapper.latency; error_probability } in
                  let best =
                    match best with
                    | Some (prev : Mapper.solution) when prev.Mapper.latency <= sol.Mapper.latency -> best
                    | _ -> Some sol
                  in
                  if error_probability <= error_threshold then
                    Ok
                      {
                        program = optimized;
                        gates_removed;
                        solution = sol;
                        attempts = List.rev (attempt :: attempts);
                        met_threshold = true;
                      }
                  else escalate (attempt :: attempts) best rest)
        in
        escalate [] None efforts
  end
