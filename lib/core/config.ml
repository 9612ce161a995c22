type budget = {
  wall_s : float option;
  max_evals : int option;
  deadline : Ion_util.Clock.deadline option;
}

let no_budget = { wall_s = None; max_evals = None; deadline = None }

type t = {
  timing : Router.Timing.t;
  qspr_policy : Simulator.Engine.policy;
  m : int;
  sa_moves : int;
  rng_seed : int;
  jobs : int;
  prescreen_k : int option;
  budget : budget;
}

let default =
  {
    timing = Router.Timing.paper;
    qspr_policy = Simulator.Engine.qspr_policy;
    m = 100;
    sa_moves = 20_000;
    rng_seed = 2012;
    jobs = 1;
    prescreen_k = None;
    budget = no_budget;
  }

let with_m m t = { t with m }
let with_sa_moves sa_moves t = { t with sa_moves }
let with_seed rng_seed t = { t with rng_seed }
let with_jobs jobs t = { t with jobs }
let with_prescreen prescreen_k t = { t with prescreen_k }
let with_budget budget t = { t with budget }
let with_incremental on t =
  if on then t
  else invalid_arg "Config.with_incremental false: the legacy routing stack was removed"

let validate t =
  if t.m < 1 then Error "Config: m must be at least 1"
  else if t.sa_moves < 1 then Error "Config: sa_moves must be at least 1"
  else if t.jobs < 1 then Error "Config: jobs must be at least 1"
  else if (match t.prescreen_k with Some k -> k < 1 | None -> false) then
    Error "Config: prescreen_k must be at least 1"
  else if (match t.budget.wall_s with Some w -> w <= 0.0 | None -> false) then
    Error "Config: budget wall-clock seconds must be positive"
  else if (match t.budget.max_evals with Some k -> k < 1 | None -> false) then
    Error "Config: budget max_evals must be at least 1"
  else if t.qspr_policy.Simulator.Engine.channel_capacity < 1 then Error "Config: channel capacity must be positive"
  else Ok t
