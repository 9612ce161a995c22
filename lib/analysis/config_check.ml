module F = Finding

let pass = "config"

let check (cfg : Qspr.Config.t) =
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  (match Qspr.Config.validate cfg with
  | Error msg -> emit (F.make ~pass ~kind:"invalid" F.Error "%s" msg)
  | Ok _ -> ());
  (match cfg.Qspr.Config.prescreen_k with
  | Some k when k >= cfg.Qspr.Config.m ->
      emit
        (F.make ~pass ~kind:"prescreen-ineffective" ~loc:(F.Key "prescreen_k")
           F.Warning
           "prescreen_k=%d >= m=%d: every candidate is fully routed anyway, the estimator only adds cost"
           k cfg.Qspr.Config.m)
  | Some k when k < 3 ->
      emit
        (F.make ~pass ~kind:"prescreen-trusts-estimator" ~loc:(F.Key "prescreen_k")
           F.Hint
           "prescreen_k=%d effectively lets the routing-free estimator pick the winner: its ranking error can drop the true best placement"
           k)
  | Some _ | None -> ());
  let t = cfg.Qspr.Config.timing in
  if t.Router.Timing.t_turn < t.Router.Timing.t_move then
    emit
      (F.make ~pass ~kind:"turn-cheaper-than-move" ~loc:(F.Key "timing")
         F.Warning
         "t_turn=%.2f < t_move=%.2f: turns are cheaper than moves, turn-aware routing has nothing to optimize"
         t.Router.Timing.t_turn t.Router.Timing.t_move);
  if t.Router.Timing.t_gate2 < t.Router.Timing.t_gate1 then
    emit
      (F.make ~pass ~kind:"gate2-faster-than-gate1" ~loc:(F.Key "timing") F.Hint
         "t_gate2=%.2f < t_gate1=%.2f: two-qubit gates faster than one-qubit gates is unusual"
         t.Router.Timing.t_gate2 t.Router.Timing.t_gate1);
  let cap = cfg.Qspr.Config.qspr_policy.Simulator.Engine.channel_capacity in
  if cap > 2 then
    emit
      (F.make ~pass ~kind:"capacity-unusual" ~loc:(F.Key "qspr_policy")
         F.Hint "channel capacity %d exceeds the paper's ion-multiplexing assumption of 2" cap);
  F.sort !findings
