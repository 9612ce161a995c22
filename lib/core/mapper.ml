open Qasm
module Engine = Simulator.Engine
module Trace = Simulator.Trace

type t = {
  graph : Fabric.Graph.t;
  comp : Fabric.Component.t;
  config : Config.t;
  program : Program.t;
  dag : Dag.t;
  udag : Dag.t option;
  priorities : float array;
  backward_priorities : float array option;
  estimator : Estimator.Model.t;
      (* every mapped job reads its distance tables for the certified bound *)
  route_cache : Router.Route_cache.t option;
      (* explicit per-context cache overriding the domain-local one; the
         holder promises the context runs on a single domain *)
}

(* ------------------------------------------------------------------ *)
(* Typed mapping failures                                             *)

type error =
  | Unroutable of { net_id : int; src_trap : int; dst_trap : int; iterations : int }
  | Deadlock of { stuck : int }
  | Livelock of { events : int; budget : int }
  | Infeasible_placement of string
  | Budget_exhausted of { attempts : int; last : error }
  | Deadline_exceeded of { budget_ms : float }
  | Invalid of string

let rec error_to_string = function
  | Unroutable { net_id; src_trap; dst_trap; iterations } ->
      Printf.sprintf "unroutable: net %d (trap %d -> trap %d) has no route after %d iteration(s)"
        net_id src_trap dst_trap iterations
  | Deadlock { stuck } ->
      Printf.sprintf "deadlock: %d instruction(s) unroutable with an idle fabric" stuck
  | Livelock { events; budget } ->
      Printf.sprintf "livelock: %d events exceeded the budget of %d" events budget
  | Infeasible_placement msg -> "infeasible placement: " ^ msg
  | Budget_exhausted { attempts; last } ->
      Printf.sprintf "budget exhausted after %d attempt(s); last failure: %s" attempts
        (error_to_string last)
  | Deadline_exceeded { budget_ms } ->
      Printf.sprintf "deadline exceeded: the %.1f ms request budget expired mid-search" budget_ms
  | Invalid msg -> msg

let of_engine_error = function
  | Engine.Invalid msg -> Invalid msg
  | Engine.Deadlock { stuck } -> Deadlock { stuck }
  | Engine.Livelock { events; budget } -> Livelock { events; budget }

type attempt = { stage : string; seed : int; outcome : (float, error) result }

type solution = {
  latency : float;
  trace : Trace.t;
  initial_placement : int array;
  final_placement : int array;
  direction : Placer.Mvfb.direction;
  placement_runs : int;
  run_latencies : float list;
  engine_evals : int;
  cpu_time_s : float;
  attempts : attempt list;
  degraded : bool;
  lower_bound_us : float;
  bound_kind : Estimator.Bound.kind;
  policy : Engine.policy;
}

let graph t = t.graph
let component t = t.comp
let program t = t.program
let dag t = t.dag
let config t = t.config
let qspr_priorities t = t.priorities

let ideal_latency t = Baseline.latency_of_dag t.config.Config.timing t.dag

(* The gate nodes of a dependency graph, in id (program) order. *)
let gate_nodes d =
  Array.of_list
    (List.filter (fun i -> Instr.is_gate (Dag.node d i).Dag.instr) (List.init (Dag.num_nodes d) Fun.id))

(* Priorities that make the backward (UIDG) run follow S*, the reverse of
   the forward schedule S (Section IV.A).  UIDG gate k corresponds to QIDG
   gate (G-1-k); its priority is the forward rank of that gate, so the last
   instruction of S issues first.  Declarations complete instantly and get a
   priority above every gate. *)
let backward_priorities_of dag udag fprios =
  let n = Dag.num_nodes dag in
  let order = Scheduler.Priority.order_of_priorities fprios in
  let rank = Array.make n 0 in
  Array.iteri (fun r id -> rank.(id) <- r) order;
  let fg = gate_nodes dag and bg = gate_nodes udag in
  let g = Array.length fg in
  let prios = Array.make (Dag.num_nodes udag) (float_of_int (2 * n)) in
  Array.iteri (fun k u -> prios.(u) <- float_of_int rank.(fg.(g - 1 - k))) bg;
  prios

let create ~fabric ?(config = Config.default) ?prebuilt ?distance ?route_cache program =
  match Config.validate config with
  | Error _ as e -> e
  | Ok config -> (
      let extracted =
        match prebuilt with
        | Some (comp, graph) when Fabric.Graph.component graph == comp -> Ok (comp, graph)
        | Some _ -> Error "Mapper.create: prebuilt graph was not built from the given component"
        | None -> (
            match Fabric.Component.extract fabric with
            | Error e -> Error ("Mapper.create: " ^ e)
            | Ok comp -> Ok (comp, Fabric.Graph.build comp))
      in
      match extracted with
      | Error _ as e -> e
      | Ok (comp, graph) ->
          let nq = Program.num_qubits program in
          if nq = 0 then Error "Mapper.create: program declares no qubits"
          else
          (* trap starvation is Fabric.Lint's check; keep a single home for it *)
          match Fabric.Lint.capacity_error ~num_qubits:nq comp with
          | Some msg -> Error ("Mapper.create: " ^ msg)
          | None -> begin
            let dag = Dag.of_program program in
            let delay = Router.Timing.gate_delay config.Config.timing in
            let priorities = Scheduler.Priority.compute Scheduler.Priority.qspr_default ~delay dag in
            let udag, backward_priorities =
              match Dag.reverse dag with
              | Ok u -> (Some u, Some (backward_priorities_of dag u priorities))
              | Error _ -> (None, None)
            in
            let estimator =
              Estimator.Model.create ~graph ~timing:config.Config.timing ?distance ~priorities dag
            in
            Ok
              {
                graph;
                comp;
                config;
                program;
                dag;
                udag;
                priorities;
                backward_priorities;
                estimator;
                route_cache;
              }
          end)

(* The route cache rides on the evaluating domain (placement search fans
   run_forward/run_backward out over pool workers, each of which keeps its
   own), so it must be fetched inside the engine call, not captured when the
   closure is built on the main domain.  A context-held cache overrides the
   domain-local one (the holder promises single-domain use).  Either reads
   the lower-bound tables of the estimator's store, so the engine's A* and
   the distance tables share one sweep per trap. *)
let route_cache_of t =
  let cache = match t.route_cache with Some c -> c | None -> Router.Route_cache.domain_local () in
  Router.Route_cache.use_bounds cache (Estimator.Distance.store (Estimator.Model.distance t.estimator));
  cache

(* The request deadline's cancellation checkpoint, armed from the config's
   budget: raises Ion_util.Clock.Expired once the deadline passes.  Handed
   to the engine (polled per event batch); [guarded] below translates the
   raise into the typed error at the [map] boundary. *)
let cancel_of t = Ion_util.Clock.guard t.config.Config.budget.Config.deadline

let guarded f =
  try f ()
  with Ion_util.Clock.Expired { budget_ms } -> Error (Deadline_exceeded { budget_ms })

let run_with t ~policy ~priorities ~placement =
  Engine.run ~graph:t.graph ~timing:t.config.Config.timing ~policy ~dag:t.dag ~priorities ~placement
    ~route_cache:(route_cache_of t) ?cancel:(cancel_of t) ()

(* The dependency graph and priorities of one MVFB direction: the QIDG
   under S forward, the UIDG under S* backward. *)
let program_of t = function
  | Placer.Search.Forward -> Ok (t.dag, t.priorities)
  | Placer.Search.Backward -> (
      match (t.udag, t.backward_priorities) with
      | Some udag, Some prios -> Ok (udag, prios)
      | None, _ | _, None ->
          Error
            (Engine.Invalid "Mapper: program is not unitary, the uncompute graph does not exist"))

(* The placers' evaluators: score a run under the QSPR policy, building no
   trace, with the request deadline armed. *)
let score t direction placement =
  Result.bind (program_of t direction) (fun (dag, priorities) ->
      Engine.score ~graph:t.graph ~timing:t.config.Config.timing
        ~policy:t.config.Config.qspr_policy ~dag ~priorities ~placement
        ~route_cache:(route_cache_of t) ?cancel:(cancel_of t) ())

let run_forward t placement = score t Placer.Search.Forward placement
let run_backward t placement = score t Placer.Search.Backward placement

(* No cancel hook: the replay materializes a winner the search has already
   found, so a deadline passing now cannot lose it. *)
let replay t direction placement =
  Result.bind (program_of t direction) (fun (dag, priorities) ->
      Engine.run ~graph:t.graph ~timing:t.config.Config.timing
        ~policy:t.config.Config.qspr_policy ~dag ~priorities ~placement
        ~route_cache:(route_cache_of t) ())

(* UIDG node k corresponds to forward node: declarations map to themselves,
   the j-th gate (in UIDG program order) to the (G-1-j)-th forward gate.
   Backward traces must have their instruction ids rewritten through this
   map so a reversed trace's gate events reference the forward program —
   consumers (noise replay, JSON export) look gates up there. *)
let backward_id_map dag udag =
  let fg = gate_nodes dag and bg = gate_nodes udag in
  let g = Array.length fg in
  let map = Array.init (Dag.num_nodes udag) Fun.id in
  Array.iteri (fun k u -> map.(u) <- fg.(g - 1 - k)) bg;
  map

let remap_trace_ids map trace =
  List.map
    (fun cmd ->
      match cmd with
      | Router.Micro.Gate_start { instr_id; trap; qubits; time } ->
          Router.Micro.Gate_start { instr_id = map.(instr_id); trap; qubits; time }
      | Router.Micro.Gate_end { instr_id; trap; qubits; time } ->
          Router.Micro.Gate_end { instr_id = map.(instr_id); trap; qubits; time }
      | Router.Micro.Move _ | Router.Micro.Turn _ -> cmd)
    trace

(* The full admissible-bound catalog for a forward-view initial placement:
   pure in (ctx, placement), so every surface (solutions, certificates, the
   audit pass, the service) reports bit-identical values at any jobs
   count.  Reads the estimator model's distance tables — built once per
   context and shared with pre-screening and quoting. *)
let certified_bound t ~initial_placement =
  Estimator.Bound.compute ~placement:initial_placement
    ~distance:(Estimator.Model.distance t.estimator)
    ~timing:t.config.Config.timing
    ~num_traps:(Array.length (Fabric.Component.traps t.comp))
    t.dag

let same_score (s : Engine.score) (r : Engine.result) =
  Int64.equal (Int64.bits_of_float s.latency) (Int64.bits_of_float r.latency)
  && s.final_placement = r.final_placement

(* Materialize a search's winner, once per job: replay its direction and
   placement with a full run.  The run is deterministic, so the replay
   reproduces the score the search compared; a mismatch is an engine bug
   and fails the job rather than reporting a trace nobody scored. *)
let materialize t (o : Placer.Search.outcome) =
  Result.bind (replay t o.direction o.placement) (fun r ->
      if same_score o.result r then Ok r
      else Error (Engine.Invalid "Mapper: the winner's replay diverged from its score"))

(* Finish a search's success record and the winner's full run [r] into a
   solution: a backward winner is reported as its time-reversed trace, and
   the certified bound is computed for the forward-view initial
   placement. *)
let solution_of t ~policy ~cpu ~attempts (o : Placer.Search.outcome) (r : Engine.result) =
  let { Placer.Search.placement; direction; runs; evaluations; latencies; truncated; _ } = o in
  let trace, initial_placement, final_placement =
    match direction with
    | Placer.Mvfb.Forward -> (r.Engine.trace, placement, r.Engine.final_placement)
    | Placer.Mvfb.Backward ->
        (* a backward winner executes forward as the time-reversed trace (with
           instruction ids rewritten to the forward program); its input
           placement in the forward view is the backward run's final one *)
        let trace =
          match t.udag with
          | Some udag -> remap_trace_ids (backward_id_map t.dag udag) (Trace.reverse r.Engine.trace)
          | None -> Trace.reverse r.Engine.trace
        in
        (trace, r.Engine.final_placement, placement)
  in
  let bound = certified_bound t ~initial_placement in
  {
    latency = r.Engine.latency;
    trace;
    initial_placement;
    final_placement;
    direction;
    placement_runs = runs;
    run_latencies = latencies;
    engine_evals = evaluations;
    cpu_time_s = cpu;
    attempts;
    degraded = truncated;
    lower_bound_us = bound.Estimator.Bound.lower_bound_us;
    bound_kind = bound.Estimator.Bound.kind;
    policy;
  }

let estimator_model t = t.estimator

let estimate t placement = Estimator.Model.estimate t.estimator placement

(* Arm the wall-clock side of a budget: the clock starts when the search
   starts, on the monotonized Ion_util.Clock — a stepped system wall clock
   can no longer hang the budget or expire it instantly (Sys.time remains
   in use only for the *reported* CPU seconds).  The evaluation cap is
   handed to the placers verbatim — they truncate deterministically in run
   order.  The same polled closure doubles as the placers' cooperative
   deadline checkpoint: when the request deadline has passed it raises
   (Ion_util.Clock.Expired) instead of returning, so chunked placer loops
   (anneals every 512 moves, MC between evaluation chunks) abort promptly
   even between engine runs. *)
let out_of_time_of (budget : Config.budget) =
  let deadline_check =
    match Ion_util.Clock.guard budget.Config.deadline with
    | Some f -> f
    | None -> Fun.const ()
  in
  match budget.Config.wall_s with
  | None ->
      fun () ->
        deadline_check ();
        false
  | Some s ->
      let cutoff = Ion_util.Clock.now_s () +. s in
      fun () ->
        deadline_check ();
        Ion_util.Clock.now_s () > cutoff

(* ------------------------------------------------------------------ *)
(* One entry point over one strategy table                            *)

type strategy = Mvfb | Monte_carlo | Annealing | Portfolio | Center | Quale | Robust

let strategies =
  [
    ("mvfb", Mvfb);
    ("mc", Monte_carlo);
    ("sa", Annealing);
    ("portfolio", Portfolio);
    ("center", Center);
    ("quale", Quale);
    ("robust", Robust);
  ]

let name_of strategy = fst (List.find (fun (_, s) -> s = strategy) strategies)

let with_search f t =
  let config = f t.config in
  if config.Config.timing <> t.config.Config.timing then
    invalid_arg "Mapper.with_search: timing is fixed when the context is created";
  match Config.validate config with
  | Ok config -> { t with config }
  | Error msg -> invalid_arg ("Mapper.with_search: " ^ msg)

let quale_priorities t =
  Scheduler.Priority.compute Scheduler.Priority.Alap
    ~delay:(Router.Timing.gate_delay t.config.Config.timing)
    t.dag

(* The engine policy a single strategy's runs use, recorded on its solution
   for the certifier. *)
let policy_of t = function Quale -> Engine.quale_policy | _ -> t.config.Config.qspr_policy

(* One placement search, every parameter from the context's config: [m]
   seeds, runs or anneal steps, [jobs] domains, [prescreen_k] estimator
   pre-screening and the evaluation cap.  [out_of_time] is the armed
   wall-clock and deadline poll, shared by every member of a portfolio. *)
let search ~out_of_time t strategy =
  let cfg = t.config in
  let seed = cfg.Config.rng_seed and m = cfg.Config.m in
  let max_evals = cfg.Config.budget.Config.max_evals in
  let num_qubits = Program.num_qubits t.program in
  let prescreen =
    Option.map
      (fun k -> (k, Estimator.Model.estimate t.estimator))
      cfg.Config.prescreen_k
  in
  let pooled f = Ion_util.Domain_pool.with_pool ~jobs:cfg.Config.jobs f in
  match strategy with
  | Mvfb ->
      (* a program with prepare/measure has no uncompute graph, so there is
         no backward pass: one forward run per start *)
      let max_runs_per_seed = if t.udag = None then Some 1 else None in
      pooled (fun pool ->
          Placer.Mvfb.search ~pool ?prescreen ~seed ~m ?max_runs_per_seed
            ~forward:(run_forward t) ~backward:(run_backward t) t.comp ~num_qubits)
  | Monte_carlo ->
      pooled (fun pool ->
          Placer.Monte_carlo.search ~pool ?prescreen ?max_evals ~out_of_time ~seed ~runs:m
            ~evaluate:(run_forward t) t.comp ~num_qubits)
  | Annealing ->
      pooled (fun pool ->
          Placer.Annealing.search ~pool ?prescreen ?max_evals ~out_of_time
            ~rng:(Ion_util.Rng.create seed) ~evaluations:m ~evaluate:(run_forward t) t.comp
            ~num_qubits)
  | Center | Quale | Portfolio | Robust ->
      Error (Engine.Invalid "Mapper.search: not a single placement search")

(* Center and Quale search nothing: their one full run from the center
   placement is the solution's trace, so they need no replay.  Quale runs
   QUALE's policy (the paper's comparator): ALAP priorities, turn-blind
   capacity-1 routing with the destination operand pinned; fabric, timing
   and event simulation are shared. *)
let fixed_run t strategy =
  let placement = Placer.Center.place t.comp ~num_qubits:(Program.num_qubits t.program) in
  let priorities = match strategy with Quale -> quale_priorities t | _ -> t.priorities in
  run_with t ~policy:(policy_of t strategy) ~priorities ~placement
  |> Result.map (fun (r : Engine.result) ->
         let result =
           { Engine.latency = r.latency; final_placement = r.final_placement;
             route_searches = r.route_searches; route_cache_hits = r.route_cache_hits;
             settled_nodes = r.settled_nodes }
         in
         ( { Placer.Search.placement; result; direction = Placer.Search.Forward; runs = 1;
             evaluations = 1; latencies = [ r.latency ]; truncated = false },
           r ))

let attempt_of ~stage ~seed outcome = { stage; seed; outcome }

let single strategy t =
  let t0 = Sys.time () in
  let found =
    match strategy with
    | Center | Quale -> fixed_run t strategy
    | _ ->
        Result.bind (search ~out_of_time:(out_of_time_of t.config.Config.budget) t strategy)
          (fun o -> Result.map (fun r -> (o, r)) (materialize t o))
  in
  match found with
  | Error e -> Error (of_engine_error e)
  | Ok (o, r) ->
      let stage = name_of strategy in
      Ok
        (solution_of t ~policy:(policy_of t strategy) ~cpu:(Sys.time () -. t0)
           ~attempts:[ attempt_of ~stage ~seed:t.config.Config.rng_seed (Ok r.Engine.latency) ]
           o r)

(* The racing portfolio: the MVFB, MC and SA searches exactly as [single]
   runs them (so it never does worse than any of them at matched
   parameters), each sequential inside one pool slot and without
   pre-screening, plus two delta-SA streams seeded by [Rng.derive] on an
   offset root so no stream collides with MVFB's per-seed derivations.
   The race is bit-identical at any job count. *)
let portfolio t =
  let cfg = t.config in
  let seed = cfg.Config.rng_seed in
  let model = t.estimator in
  let t0 = Sys.time () in
  let out_of_time = out_of_time_of cfg.Config.budget in
  let member_ctx = { t with config = { cfg with Config.jobs = 1; prescreen_k = None } } in
  let member strategy =
    let run () = search ~out_of_time member_ctx strategy in
    { Placer.Portfolio.name = name_of strategy; run }
  in
  let delta_sa k =
    let run () =
      Placer.Annealing.search_delta ?max_evals:cfg.Config.budget.Config.max_evals ~out_of_time
        ~rng:(Ion_util.Rng.derive (seed + 7919) ~index:k)
        ~moves:cfg.Config.sa_moves ~model ~evaluate:(run_forward t) t.comp
        ~num_qubits:(Program.num_qubits t.program)
      |> Result.map (fun (o : Placer.Annealing.delta_outcome) ->
             {
               Placer.Search.placement = o.placement;
               result = o.result;
               direction = Placer.Search.Forward;
               runs = o.engine_evals;
               evaluations = o.engine_evals;
               latencies = o.latencies;
               truncated = o.truncated;
             })
    in
    { Placer.Portfolio.name = Printf.sprintf "delta-sa-%d" k; run }
  in
  let racers = List.map member [ Mvfb; Monte_carlo; Annealing ] @ [ delta_sa 0; delta_sa 1 ] in
  match
    Ion_util.Domain_pool.with_pool ~jobs:cfg.Config.jobs (fun pool ->
        Placer.Portfolio.race ~pool racers)
  with
  | Error e -> Error (of_engine_error e)
  | Ok o -> (
      let attempts, evals =
        List.fold_right
          (fun (e : Placer.Portfolio.entry) (attempts, evals) ->
            let outcome, evals =
              match e.entry_outcome with
              | Ok s -> (Ok s.result.Engine.latency, evals + s.evaluations)
              | Error err -> (Error (of_engine_error err), evals)
            in
            (attempt_of ~stage:("portfolio:" ^ e.entry_name) ~seed outcome :: attempts, evals))
          o.Placer.Portfolio.entries ([], 0)
      in
      let best = { o.Placer.Portfolio.best with runs = evals; evaluations = evals } in
      match materialize t best with
      | Error e -> Error (of_engine_error e)
      | Ok r ->
          Ok (solution_of t ~policy:cfg.Config.qspr_policy ~cpu:(Sys.time () -. t0) ~attempts best r))

(* The hardened pipeline: re-seed the placer, switch placer, then widen
   the engine's per-issue trap candidates (the Pathfinder-style congestion
   relaxation available to the event-driven router).  Stage [i] runs
   under seed [rng_seed + i]; the first success wins.  An expired deadline
   raises out of the cascade, since every later stage would abort at its
   first checkpoint too. *)
let robust t =
  let seed = t.config.Config.rng_seed in
  let relax (c : Config.t) =
    let p = c.Config.qspr_policy in
    { c with Config.qspr_policy = { p with Engine.trap_candidates = p.Engine.trap_candidates + 2 } }
  in
  let stages =
    [
      ("mvfb", Mvfb, Fun.id);
      ("mvfb+reseed", Mvfb, Fun.id);
      ("mc", Monte_carlo, Fun.id);
      ("sa", Annealing, Fun.id);
      ("mvfb+relaxed", Mvfb, relax);
    ]
  in
  let rec go i failures = function
    | [] -> (
        match failures with
        | { outcome = Error last; _ } :: _ -> Error (Budget_exhausted { attempts = i; last })
        | _ -> Error (Invalid "Mapper.map: the robust cascade has no stages"))
    | (stage, strategy, adjust) :: rest -> (
        let stage_seed = seed + i in
        match single strategy (with_search (fun c -> adjust (Config.with_seed stage_seed c)) t) with
        | Ok s ->
            let audit = List.rev (attempt_of ~stage ~seed:stage_seed (Ok s.latency) :: failures) in
            Ok { s with attempts = audit; degraded = s.degraded || failures <> [] }
        | Error e -> go (i + 1) (attempt_of ~stage ~seed:stage_seed (Error e) :: failures) rest)
  in
  go 0 [] stages

let map strategy t =
  guarded @@ fun () ->
  match strategy with Portfolio -> portfolio t | Robust -> robust t | s -> single s t

(* Kept for the benchmark harness until it calls [map]. *)
let jobs_of jobs t = match jobs with Some j -> with_search (Config.with_jobs j) t | None -> t
let map_mvfb ?jobs t = map Mvfb (jobs_of jobs t)
let map_center t = map Center t
let map_portfolio ?jobs t = map Portfolio (jobs_of jobs t)
