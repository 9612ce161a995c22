module F = Finding

type pass = { name : string; description : string }

let passes =
  [
    { name = "program"; description = "QASM dependency-graph analysis: initialization, dead qubits, removable and commuting gates" };
    { name = "fabric"; description = "fabric structure: connectivity, capacity, cut-vertex bottlenecks, dead ends" };
    { name = "config"; description = "parameter sanity: prescreen width, timing model, channel capacity" };
    { name = "certify"; description = "independent trace replay: certifies a mapping's micro-command trace" };
    { name = "determinism"; description = "bit-for-bit sequential-vs-parallel diff of a placement search" };
    { name = "bound"; description = "optimality-gap audit: admissible latency lower bounds, capacity feasibility, small-instance exact optimum (qspr audit)" };
  ]

let lint_static ?program ?fabric ?config () =
  let num_qubits =
    match program with Some (Ok p) -> Some (Qasm.Program.num_qubits p) | _ -> None
  in
  let channel_capacity =
    Option.map (fun cfg -> cfg.Qspr.Config.qspr_policy.Simulator.Engine.channel_capacity) config
  in
  let program_findings =
    match program with Some r -> Program_check.check_result r | None -> []
  in
  let fabric_findings =
    match fabric with
    | Some st -> Fabric_check.merge ?num_qubits ?channel_capacity st
    | None -> []
  in
  let config_findings = match config with Some cfg -> Config_check.check cfg | None -> [] in
  F.sort (program_findings @ fabric_findings @ config_findings)

let lint ?program ?fabric ?config () =
  lint_static ?program ?fabric:(Option.map Fabric_check.static_result fabric) ?config ()

let render findings =
  let buf = Buffer.create 256 in
  List.iter (fun f -> Buffer.add_string buf (Format.asprintf "%a@." F.pp f)) findings;
  let e = F.count F.Error findings
  and w = F.count F.Warning findings
  and h = F.count F.Hint findings in
  if e = 0 && w = 0 && h = 0 then Buffer.add_string buf "clean: no findings\n"
  else Buffer.add_string buf (Printf.sprintf "%d error(s), %d warning(s), %d hint(s)\n" e w h);
  Buffer.contents buf
