module Protocol = Service.Protocol
module Mapper = Qspr.Mapper
module Config = Qspr.Config
module Route_cache = Router.Route_cache
module Json = Ion_util.Json

type span = {
  id : int;
  parent : int;
  job : int;
  name : string;
  start_s : float;
  stop_s : float;
  minor_words : float;
  promoted_words : float;
}

type answer = {
  status : string;
  stage : string option;
  latency_bits : int64 option;
  digest : int64 option;
}

type counts = {
  parse_bytes : int;
  placement_runs : int;
  engine_evals : int;
  route_hits : int;
  route_searches : int;
  bound_kind : string option;
  certify_commands : int;
  delta_moves : int;
  delta_accepted : int;
  delta_evals : int;
}

let no_counts =
  {
    parse_bytes = 0;
    placement_runs = 0;
    engine_evals = 0;
    route_hits = 0;
    route_searches = 0;
    bound_kind = None;
    certify_commands = 0;
    delta_moves = 0;
    delta_accepted = 0;
    delta_evals = 0;
  }

type job = { id : string; answer : answer; counts : counts; disagreements : string list }

(* per-fabric warm state, built on the fabric's first use exactly as the
   service's registry builds it *)
type entry = {
  comp : Fabric.Component.t;
  graph : Fabric.Graph.t;
  distance : Estimator.Distance.t;
  mutable snapshot : Route_cache.snapshot option;
}

type t = {
  base : Config.t;
  fabrics : (string, entry) Hashtbl.t;
  responses : (string, answer * counts * Protocol.response) Hashtbl.t;
  mutable spans : span list;  (** newest first *)
  mutable next_span : int;
  mutable jobs : job list;  (** newest first *)
  mutable current : int;
}

let create config =
  {
    base =
      Config.with_jobs 1
        { config with Config.budget = { config.Config.budget with Config.wall_s = None } };
    fabrics = Hashtbl.create 8;
    responses = Hashtbl.create 64;
    spans = [];
    next_span = 0;
    jobs = [];
    current = 0;
  }

let span t ~parent name f =
  let id = t.next_span in
  t.next_span <- id + 1;
  let g0 = Gc.quick_stat () in
  let t0 = Ion_util.Clock.now_s () in
  let v = f id in
  let t1 = Ion_util.Clock.now_s () in
  let g1 = Gc.quick_stat () in
  t.spans <-
    {
      id;
      parent;
      job = t.current;
      name;
      start_s = t0;
      stop_s = t1;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    }
    :: t.spans;
  v

let job_config base (job : Protocol.job) =
  let c = Config.with_seed job.Protocol.seed base in
  let c = match job.Protocol.m with Some m -> Config.with_m m c | None -> c in
  Config.with_budget { Config.wall_s = None; max_evals = job.Protocol.max_evals; deadline = None } c

let map ctx = function
  | "mvfb" -> Mapper.map_mvfb ~jobs:1 ctx
  | "center" -> Mapper.map_center ctx
  | "portfolio" -> Mapper.map_portfolio ~jobs:1 ctx
  | placer ->
      Error (Mapper.Invalid ("the traced run covers mvfb, center and portfolio, not " ^ placer))

let refusal stage = { status = "rejected"; stage = Some stage; latency_bits = None; digest = None }

let rejected ?quote ?(findings = []) stage reason =
  Protocol.Rejected { stage; reason; quote_us = quote; findings }

(* The service path of one job.  Returns the answer, the response the
   service would render, and — for mapped jobs — what the probes need. *)
let service_path t ~root ~counts ~id line =
  let child name f = span t ~parent:root name (fun _ -> f ()) in
  let respond ?cache answer verdict =
    let response =
      { Protocol.job_id = !id; verdict; cache; cpu_s = 0.0; cached = false }
    in
    ignore (child "service.encode" (fun () -> Protocol.response_to_line response));
    (answer, response)
  in
  let refuse ?quote ?findings stage reason =
    (respond (refusal stage) (rejected ?quote ?findings stage reason), None)
  in
  match child "service.decode" (fun () -> Protocol.job_of_line line) with
  | Error msg -> refuse "request" msg
  | Ok job -> (
      id := job.Protocol.id;
      match Hashtbl.find_opt t.responses (Protocol.job_to_line job) with
      | Some (answer, c, r) ->
          counts := c;
          let r = { r with Protocol.cached = true } in
          ignore (child "service.encode" (fun () -> Protocol.response_to_line r));
          ((answer, r), None)
      | None -> (
          let config = job_config t.base job in
          let program_r =
            match job.Protocol.circuit with
            | Protocol.Builtin name ->
                child "circuits.builtin" (fun () ->
                    match List.assoc_opt name (Circuits.Qecc.all ()) with
                    | Some p -> Ok p
                    | None -> Error (Qasm.Parser.error_of_string ("unknown builtin " ^ name)))
            | Protocol.Inline_qasm src ->
                counts := { !counts with parse_bytes = String.length src };
                child "qasm.parse" (fun () -> Qasm.Parser.parse_located ~name:job.Protocol.id src)
          in
          let fabric_r =
            child "fabric.parse" (fun () ->
                match job.Protocol.fabric with
                | None -> Ok (Fabric.Layout.quale_45x85 ())
                | Some src -> Fabric.Layout.parse src)
          in
          let findings =
            child "analysis.lint" (fun () ->
                Analysis.Registry.lint ~program:program_r ~fabric:fabric_r ~config ())
          in
          match (program_r, fabric_r) with
          | _ when not (Analysis.Finding.is_clean findings) ->
              refuse ~findings:(List.map Analysis.Finding.to_json findings) "lint" "lint errors"
          | Error e, _ -> refuse "lint" (Qasm.Parser.error_to_string e)
          | _, Error e -> refuse "lint" e
          | Ok program, Ok layout -> (
              let key = Fabric.Layout.to_ascii layout in
              let entry =
                match Hashtbl.find_opt t.fabrics key with
                | Some e -> Ok e
                | None -> (
                    match
                      child "fabric.build" (fun () ->
                          Result.map
                            (fun comp -> (comp, Fabric.Graph.build comp))
                            (Fabric.Component.extract layout))
                    with
                    | Error _ as e -> e
                    | Ok (comp, graph) ->
                        let distance =
                          child "estimator.distance" (fun () ->
                              Estimator.Distance.build graph
                                ~turn_cost:(Router.Timing.turn_cost_in_moves config.Config.timing))
                        in
                        let e = { comp; graph; distance; snapshot = None } in
                        Hashtbl.replace t.fabrics key e;
                        Ok e)
              in
              match entry with
              | Error e -> refuse "admission" e
              | Ok entry -> (
                  let cache = Route_cache.create () in
                  Option.iter (Route_cache.attach cache) entry.snapshot;
                  match
                    child "core.create" (fun () ->
                        Mapper.create ~fabric:layout ~config ~prebuilt:(entry.comp, entry.graph)
                          ~distance:entry.distance ~route_cache:cache program)
                  with
                  | Error e -> refuse "admission" e
                  | Ok ctx -> (
                      let quote =
                        child "estimator.quote" (fun () ->
                            Mapper.estimate ctx
                              (Placer.Center.place entry.comp
                                 ~num_qubits:(Qasm.Program.num_qubits program)))
                      in
                      match job.Protocol.max_quote_us with
                      | _ when not (Float.is_finite quote) -> refuse "quote" "infinite quote"
                      | Some cap when quote > cap -> refuse ~quote "quote" "quote above ceiling"
                      | _ -> (
                          match child "placer.search" (fun () -> map ctx job.Protocol.placer) with
                          | Error e ->
                              let reason = Mapper.error_to_string e in
                              ( respond
                                  { status = "failed"; stage = None; latency_bits = None; digest = None }
                                  (Protocol.Failed { reason; quote_us = Some quote; attempts = [] }),
                                None )
                          | Ok sol ->
                              counts :=
                                {
                                  !counts with
                                  placement_runs = sol.Mapper.placement_runs;
                                  engine_evals = sol.Mapper.engine_evals;
                                  route_hits = Route_cache.hits cache;
                                  route_searches = Route_cache.misses cache;
                                };
                              let cache_stats =
                                {
                                  Protocol.hits = Route_cache.hits cache;
                                  misses = Route_cache.misses cache;
                                  shared_hits = Route_cache.shared_hits cache;
                                  bound_builds = Route_cache.bound_builds cache;
                                  warm_paths =
                                    Option.fold ~none:0 ~some:Route_cache.snapshot_paths entry.snapshot;
                                  fabric_evictions = 0;
                                }
                              in
                              (* fold the job's tables back, as the service does after a wave;
                                 probes below touch only the private cache *)
                              (match entry.snapshot with
                              | Some s -> Route_cache.attach cache s
                              | None -> Route_cache.for_graph cache entry.graph);
                              entry.snapshot <- Some (Route_cache.freeze cache);
                              let cert =
                                child "analysis.certify" (fun () -> Analysis.Certify.of_solution ctx sol)
                              in
                              counts := { !counts with certify_commands = cert.Analysis.Certify.commands };
                              let lb = sol.Mapper.lower_bound_us in
                              let verdict =
                                Protocol.Completed
                                  {
                                    latency_us = sol.Mapper.latency;
                                    quote_us = quote;
                                    lower_bound_us = lb;
                                    bound_kind = Estimator.Bound.kind_to_string sol.Mapper.bound_kind;
                                    optimality_gap =
                                      (if lb > 0.0 then Some ((sol.Mapper.latency -. lb) /. lb) else None);
                                    placement_runs = sol.Mapper.placement_runs;
                                    engine_evals = sol.Mapper.engine_evals;
                                    degraded = sol.Mapper.degraded;
                                    direction =
                                      (match sol.Mapper.direction with
                                      | Placer.Mvfb.Forward -> "forward"
                                      | Placer.Mvfb.Backward -> "backward");
                                    shed = "none";
                                    certificate_digest = cert.Analysis.Certify.digest;
                                    certificate_valid = cert.Analysis.Certify.valid;
                                    attempts =
                                      List.map
                                        (fun (a : Mapper.attempt) ->
                                          {
                                            Protocol.stage = a.Mapper.stage;
                                            seed = a.Mapper.seed;
                                            outcome =
                                              Result.map_error Mapper.error_to_string a.Mapper.outcome;
                                          })
                                        sol.Mapper.attempts;
                                  }
                              in
                              let answer =
                                {
                                  status = "ok";
                                  stage = None;
                                  latency_bits = Some (Int64.bits_of_float sol.Mapper.latency);
                                  digest = Some cert.Analysis.Certify.digest;
                                }
                              in
                              let answer, response = respond ~cache:cache_stats answer verdict in
                              Hashtbl.replace t.responses (Protocol.job_to_line job)
                                (answer, !counts, response);
                              ((answer, response), Some (ctx, sol, job))))))))

(* Measurement-only re-executions of a mapped job. *)
let probes t ~root ~counts ~disagree ctx (sol : Mapper.solution) (job : Protocol.job) =
  let child name f = span t ~parent:root name (fun _ -> f ()) in
  ignore (child "simulator.eval" (fun () -> Mapper.run_forward ctx sol.Mapper.initial_placement));
  let bound =
    child "estimator.bound" (fun () ->
        Mapper.certified_bound ctx ~initial_placement:sol.Mapper.initial_placement)
  in
  counts :=
    { !counts with bound_kind = Some (Estimator.Bound.kind_to_string bound.Estimator.Bound.kind) };
  if
    Int64.bits_of_float bound.Estimator.Bound.lower_bound_us
    <> Int64.bits_of_float sol.Mapper.lower_bound_us
  then disagree "Mapper.certified_bound does not reproduce the solution's lower bound";
  if String.equal job.Protocol.placer "portfolio" then begin
    let config = Mapper.config ctx in
    (* the portfolio's first delta-SA stream, seeded as Mapper.map_portfolio seeds it *)
    match
      child "placer.delta_sa" (fun () ->
          Placer.Annealing.search_delta ?max_evals:config.Config.budget.Config.max_evals
            ~rng:(Ion_util.Rng.derive (config.Config.rng_seed + 7919) ~index:0)
            ~moves:config.Config.sa_moves ~model:(Mapper.estimator_model ctx)
            ~evaluate:(Mapper.run_forward ctx) (Mapper.component ctx)
            ~num_qubits:(Qasm.Program.num_qubits (Mapper.program ctx)))
    with
    | Error e -> disagree ("delta-SA probe failed: " ^ Simulator.Engine.string_of_error e)
    | Ok o ->
        counts :=
          {
            !counts with
            delta_moves = o.Placer.Annealing.moves;
            delta_accepted = o.Placer.Annealing.accepted;
            delta_evals = o.Placer.Annealing.engine_evals;
          };
        let raced =
          List.find_map
            (fun (a : Mapper.attempt) ->
              match a.Mapper.outcome with
              | Ok l when String.equal a.Mapper.stage "portfolio:delta-sa-0" -> Some l
              | Ok _ | Error _ -> None)
            sol.Mapper.attempts
        in
        if raced <> Some o.Placer.Annealing.result.Simulator.Engine.latency then
          disagree "delta-SA probe does not reproduce the portfolio's delta-sa-0 stream"
  end

let run t line =
  let counts = ref no_counts and id = ref "?" and notes = ref [] in
  let disagree s = notes := s :: !notes in
  let answer, mapped =
    try
      span t ~parent:(-1) "job" (fun root ->
          let (answer, _response), mapped = service_path t ~root ~counts ~id line in
          (answer, mapped))
    with e ->
      ( {
          status = "exception: " ^ Printexc.to_string e;
          stage = None;
          latency_bits = None;
          digest = None;
        },
        None )
  in
  (match mapped with
  | None -> ()
  | Some (ctx, sol, job) -> (
      try span t ~parent:(-1) "probe" (fun root -> probes t ~root ~counts ~disagree ctx sol job)
      with e -> disagree ("probe raised " ^ Printexc.to_string e)));
  let job = { id = !id; answer; counts = !counts; disagreements = List.rev !notes } in
  t.jobs <- job :: t.jobs;
  t.current <- t.current + 1;
  job

let spans t = List.sort (fun (a : span) (b : span) -> compare a.id b.id) t.spans
let jobs t = List.rev t.jobs

let write t path =
  let opt f = function Some v -> f v | None -> Json.Null in
  let job_json i (j : job) =
    Json.Obj
      [
        ("job", Json.Int i);
        ("id", Json.String j.id);
        ("status", Json.String j.answer.status);
        ("stage", opt (fun s -> Json.String s) j.answer.stage);
        ("digest", opt (fun d -> Json.String (Printf.sprintf "%016Lx" d)) j.answer.digest);
        ("engine_evals", Json.Int j.counts.engine_evals);
        ("route_hits", Json.Int j.counts.route_hits);
        ("route_searches", Json.Int j.counts.route_searches);
        ("bound_kind", opt (fun s -> Json.String s) j.counts.bound_kind);
        ("disagreements", Json.List (List.map (fun s -> Json.String s) j.disagreements));
      ]
  in
  let span_json (s : span) =
    Json.Obj
      [
        ("id", Json.Int s.id);
        ("parent", Json.Int s.parent);
        ("job", Json.Int s.job);
        ("name", Json.String s.name);
        ("start_s", Json.Float s.start_s);
        ("stop_s", Json.Float s.stop_s);
        ("minor_words", Json.Float s.minor_words);
        ("promoted_words", Json.Float s.promoted_words);
      ]
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "qbench-trace/1");
        ("jobs", Json.List (List.mapi job_json (jobs t)));
        ("spans", Json.List (List.map span_json (spans t)));
      ]
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string ~indent:false doc))
