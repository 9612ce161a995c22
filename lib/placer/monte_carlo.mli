(** Monte-Carlo placer (paper Section V.A).

    Draws random center placements, evaluates each by a full
    schedule-and-route run, and keeps the best.  The paper sizes the MC run
    count to match MVFB's total placement runs so the two placers spend the
    same CPU time.

    Monte-Carlo is the MVFB seed pool ({!Search.multistart}) with one
    forward run per start — {!Mvfb.search_seed} capped at one run — so it
    shares MVFB's per-run randomness ([Rng.derive seed ~index]), dedup,
    pre-screening and run-order merge, and is bit-identical at any pool
    size.  It reports the requested [runs], deduplicated and
    pre-screened-out runs included; [latencies] holds every run that was
    routed or replays a routed duplicate. *)

val search :
  ?pool:Ion_util.Domain_pool.t ->
  ?prescreen:int * (int array -> float) ->
  ?max_evals:int ->
  ?out_of_time:(unit -> bool) ->
  seed:int ->
  runs:int ->
  evaluate:(int array -> (Simulator.Engine.result, Simulator.Engine.error) result) ->
  Fabric.Component.t ->
  num_qubits:int ->
  (Search.outcome, Simulator.Engine.error) result
(** [Error] if [runs < 1] or [prescreen] carries [k < 1] (both as
    {!Simulator.Engine.Invalid}), or any routed evaluation fails (the first
    failing run in run order is reported).  [prescreen = (k, estimate)]
    routes only the [k] best-estimated unique candidates (estimate ties keep
    the earliest run); [estimate] and [evaluate] must be safe to call from
    several domains at once when a multi-domain [pool] is supplied.

    Budgets make the search anytime: [max_evals] deterministically keeps only
    the first [max_evals] candidates in run order, and [out_of_time] is
    polled between evaluation chunks to stop on a wall-clock deadline (which
    chunk it stops after is inherently run-dependent).  At least one
    candidate is always evaluated; a budget cut sets [truncated]. *)
