module Json = Ion_util.Json
module Coord = Ion_util.Coord
open Router

let coord (c : Coord.t) = Json.List [ Json.Int c.Coord.x; Json.Int c.Coord.y ]

let command = function
  | Micro.Move { qubit; from_; to_; start; finish } ->
      Json.Obj
        [
          ("op", Json.String "move");
          ("qubit", Json.Int qubit);
          ("from", coord from_);
          ("to", coord to_);
          ("start_us", Json.Float start);
          ("finish_us", Json.Float finish);
        ]
  | Micro.Turn { qubit; at; start; finish } ->
      Json.Obj
        [
          ("op", Json.String "turn");
          ("qubit", Json.Int qubit);
          ("at", coord at);
          ("start_us", Json.Float start);
          ("finish_us", Json.Float finish);
        ]
  | Micro.Gate_start { instr_id; trap; qubits; time } ->
      Json.Obj
        [
          ("op", Json.String "gate_start");
          ("instruction", Json.Int instr_id);
          ("trap", coord trap);
          ("qubits", Json.List (List.map (fun q -> Json.Int q) qubits));
          ("time_us", Json.Float time);
        ]
  | Micro.Gate_end { instr_id; trap; qubits; time } ->
      Json.Obj
        [
          ("op", Json.String "gate_end");
          ("instruction", Json.Int instr_id);
          ("trap", coord trap);
          ("qubits", Json.List (List.map (fun q -> Json.Int q) qubits));
          ("time_us", Json.Float time);
        ]

let placement a = Json.List (Array.to_list (Array.map (fun t -> Json.Int t) a))

let solution ?(include_trace = true) ~program (s : Mapper.solution) =
  let nq = Qasm.Program.num_qubits program in
  let exposures = Noise.Exposure.of_trace ~num_qubits:nq s.Mapper.trace in
  let exposure (e : Noise.Exposure.per_qubit) =
    Json.Obj
      [
        ("qubit", Json.Int e.Noise.Exposure.qubit);
        ("idle_us", Json.Float e.Noise.Exposure.idle_us);
        ("moving_us", Json.Float e.Noise.Exposure.moving_us);
        ("turning_us", Json.Float e.Noise.Exposure.turning_us);
        ("gate_us", Json.Float e.Noise.Exposure.gate_us);
      ]
  in
  let base =
    [
      ("circuit", Json.String program.Qasm.Program.name);
      ("qubits", Json.Int nq);
      ("gates", Json.Int (Qasm.Program.gate_count program));
      ("latency_us", Json.Float s.Mapper.latency);
      ("lower_bound_us", Json.Float s.Mapper.lower_bound_us);
      ("bound_kind", Json.String (Estimator.Bound.kind_to_string s.Mapper.bound_kind));
      ( "optimality_gap",
        match Estimator.Bound.gap ~latency:s.Mapper.latency ~bound:s.Mapper.lower_bound_us with
        | Some g -> Json.Float g
        | None -> Json.Null );
      ( "direction",
        Json.String (match s.Mapper.direction with Placer.Mvfb.Forward -> "forward" | Placer.Mvfb.Backward -> "backward") );
      ("placement_runs", Json.Int s.Mapper.placement_runs);
      ("engine_evals", Json.Int s.Mapper.engine_evals);
      ("cpu_seconds", Json.Float s.Mapper.cpu_time_s);
      ("initial_placement", placement s.Mapper.initial_placement);
      ("final_placement", placement s.Mapper.final_placement);
      ("run_latencies_us", Json.List (List.map (fun l -> Json.Float l) s.Mapper.run_latencies));
      ( "success_probability",
        Json.Float (Noise.Estimate.success_probability Noise.Model.default exposures) );
      ("exposure", Json.List (Array.to_list (Array.map exposure exposures)));
    ]
  in
  let trace_field =
    if include_trace then [ ("trace", Json.List (List.map command s.Mapper.trace)) ] else []
  in
  Json.Obj (base @ trace_field)

let solution_string ?include_trace ~program s = Json.to_string (solution ?include_trace ~program s)
