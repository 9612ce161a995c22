type budget = {
  wall_s : float option;
  max_evals : int option;
  deadline : Ion_util.Clock.deadline option;
}

let no_budget = { wall_s = None; max_evals = None; deadline = None }

type t = {
  timing : Router.Timing.t;
  qspr_policy : Simulator.Engine.policy;
  quale_policy : Simulator.Engine.policy;
  m : int;
  sa_moves : int;
  patience : int;
  rng_seed : int;
  jobs : int;
  prescreen_k : int option;
  budget : budget;
}

let default =
  {
    timing = Router.Timing.paper;
    qspr_policy = Simulator.Engine.qspr_policy;
    quale_policy = Simulator.Engine.quale_policy;
    m = 100;
    sa_moves = 20_000;
    patience = 3;
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

(* Each variable overrides one field when it parses and is in range;
   unset, unparsable or out-of-range values keep the base's value. *)
let of_env getenv t =
  let lookup conv in_range name =
    match Option.map String.trim (getenv name) with
    | None -> None
    | Some s -> ( match conv s with Some v when in_range v -> Some v | _ -> None)
  in
  let count name = lookup int_of_string_opt (fun k -> k >= 1) name in
  let keep base = function Some v -> v | None -> base in
  let keep_opt base = function Some _ as v -> v | None -> base in
  {
    t with
    jobs = keep t.jobs (count "QSPR_JOBS");
    prescreen_k = keep_opt t.prescreen_k (count "QSPR_PRESCREEN");
    sa_moves = keep t.sa_moves (count "QSPR_SA_MOVES");
    budget =
      {
        t.budget with
        wall_s =
          keep_opt t.budget.wall_s (lookup float_of_string_opt (fun w -> w > 0.0) "QSPR_BUDGET");
        max_evals = keep_opt t.budget.max_evals (count "QSPR_BUDGET_EVALS");
      };
  }

let validate t =
  if t.m < 1 then Error "Config: m must be at least 1"
  else if t.sa_moves < 1 then Error "Config: sa_moves must be at least 1"
  else if t.patience < 1 then Error "Config: patience must be at least 1"
  else if t.jobs < 1 then Error "Config: jobs must be at least 1"
  else if (match t.prescreen_k with Some k -> k < 1 | None -> false) then
    Error "Config: prescreen_k must be at least 1"
  else if (match t.budget.wall_s with Some w -> w <= 0.0 | None -> false) then
    Error "Config: budget wall-clock seconds must be positive"
  else if (match t.budget.max_evals with Some k -> k < 1 | None -> false) then
    Error "Config: budget max_evals must be at least 1"
  else if t.qspr_policy.Simulator.Engine.channel_capacity < 1 then Error "Config: channel capacity must be positive"
  else Ok t
