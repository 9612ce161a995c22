module Coord = Ion_util.Coord
module Json = Ion_util.Json

type op = Move | Turn | Gate1 | Gate2

type t =
  | Dead_junction of int
  | Blocked_channel of int
  | Disabled_trap of int
  | Slow of { op : op; factor : float }

type set = t list

let op_to_string = function Move -> "move" | Turn -> "turn" | Gate1 -> "gate1" | Gate2 -> "gate2"

let to_string = function
  | Dead_junction j -> Printf.sprintf "dead junction #%d" j
  | Blocked_channel s -> Printf.sprintf "blocked channel segment #%d" s
  | Disabled_trap t -> Printf.sprintf "disabled trap #%d" t
  | Slow { op; factor } -> Printf.sprintf "%s slowed %.2fx" (op_to_string op) factor

let resource_kind = function
  | Dead_junction _ -> "junction"
  | Blocked_channel _ -> "channel"
  | Disabled_trap _ -> "trap"
  | Slow _ -> "timing"

let sample_with rng ~n comp =
  if n < 0 then invalid_arg "Fault.sample: negative fault count";
  let nj = Array.length (Fabric.Component.junctions comp) in
  let ns = Array.length (Fabric.Component.segments comp) in
  let nt = Array.length (Fabric.Component.traps comp) in
  let pool =
    Array.init (nj + ns + nt) (fun i ->
        if i < nj then Dead_junction i
        else if i < nj + ns then Blocked_channel (i - nj)
        else Disabled_trap (i - nj - ns))
  in
  Ion_util.Rng.shuffle rng pool;
  Array.to_list (Array.sub pool 0 (min n (Array.length pool)))

let sample ~seed ~index ~n comp = sample_with (Ion_util.Rng.derive seed ~index) ~n comp

type applied = {
  layout : Fabric.Layout.t;
  faulted_cells : Coord.t list;
  cascaded_traps : int;
}

let apply layout faults =
  match Fabric.Component.extract layout with
  | Error msg -> Error msg
  | Ok comp ->
      let w = Fabric.Layout.width layout and h = Fabric.Layout.height layout in
      let grid = Array.init h (fun y -> Array.init w (fun x -> Fabric.Layout.get layout (Coord.make x y))) in
      let blanked = ref [] in
      let blank c =
        if not (Fabric.Cell.equal grid.(c.Coord.y).(c.Coord.x) Fabric.Cell.Empty) then begin
          grid.(c.Coord.y).(c.Coord.x) <- Fabric.Cell.Empty;
          blanked := c :: !blanked
        end
      in
      List.iter
        (fun f ->
          match f with
          | Dead_junction j -> blank (Fabric.Component.junctions comp).(j).Fabric.Component.jpos
          | Blocked_channel s ->
              Array.iter blank (Fabric.Component.segments comp).(s).Fabric.Component.cells
          | Disabled_trap t -> blank (Fabric.Component.traps comp).(t).Fabric.Component.tpos
          | Slow _ -> ())
        faults;
      (* cascade: a trap whose every walkable neighbour was faulted away has
         no tap cell left, which the parser (rightly) rejects — such traps
         leave the fabric with their channel.  One pass suffices: blanking a
         trap never removes another trap's walkable neighbour. *)
      let cascaded = ref 0 in
      for y = 0 to h - 1 do
        for x = 0 to w - 1 do
          if Fabric.Cell.equal grid.(y).(x) Fabric.Cell.Trap then begin
            let walkable (dx, dy) =
              let nx = x + dx and ny = y + dy in
              nx >= 0 && nx < w && ny >= 0 && ny < h && Fabric.Cell.is_walkable grid.(ny).(nx)
            in
            if not (List.exists walkable [ (1, 0); (-1, 0); (0, 1); (0, -1) ]) then begin
              incr cascaded;
              blank (Coord.make x y)
            end
          end
        done
      done;
      let buf = Buffer.create (h * (w + 1)) in
      Array.iter
        (fun row ->
          Array.iter (fun cell -> Buffer.add_char buf (Fabric.Cell.to_char cell)) row;
          Buffer.add_char buf '\n')
        grid;
      Result.map
        (fun degraded ->
          { layout = degraded; faulted_cells = List.rev !blanked; cascaded_traps = !cascaded })
        (Fabric.Layout.parse (Buffer.contents buf))

let degrade_timing tm faults =
  List.fold_left
    (fun tm f ->
      match f with
      | Slow { factor; _ } when factor < 1.0 ->
          invalid_arg "Fault.degrade_timing: slow-down factor below 1"
      | Slow { op = Move; factor } -> { tm with Router.Timing.t_move = tm.Router.Timing.t_move *. factor }
      | Slow { op = Turn; factor } -> { tm with Router.Timing.t_turn = tm.Router.Timing.t_turn *. factor }
      | Slow { op = Gate1; factor } ->
          { tm with Router.Timing.t_gate1 = tm.Router.Timing.t_gate1 *. factor }
      | Slow { op = Gate2; factor } ->
          { tm with Router.Timing.t_gate2 = tm.Router.Timing.t_gate2 *. factor }
      | Dead_junction _ | Blocked_channel _ | Disabled_trap _ -> tm)
    tm faults

(* ------------------------------------------------------------- campaign *)

type outcome =
  | Mapped of { latency : float; degraded : bool; attempts : int }
  | Infeasible of Analysis.Finding.t
  | Unmappable of string
  | Failed of { error : string; first_failing : string }

type trial = { index : int; faults : set; outcome : outcome }

type level = {
  fault_count : int;
  trials : trial list;
  survived : int;
  infeasible : int;
  mean_latency : float option;
  worst_latency : float option;
}

type report = {
  circuit : string;
  seed : int;
  trials_per_level : int;
  baseline_latency : float;
  levels : level list;
  histogram : (string * int) list;
}

let campaign ?(jobs = 1) ?(config = Qspr.Config.default) ~seed
    ~levels ~trials ~fabric program =
  if trials < 1 then Error "Fault.campaign: trials must be >= 1"
  else if levels = [] then Error "Fault.campaign: no fault levels given"
  else if List.exists (fun l -> l < 0) levels then Error "Fault.campaign: negative fault count"
  else begin
    (* wall-clock budgets are nondeterministic across job counts; strip them
       and keep only the (deterministic) evaluation budget.  Parallelism is
       across trials, so each trial's search is sequential. *)
    let config =
      Qspr.Config.with_jobs 1
        { config with Qspr.Config.budget = { config.Qspr.Config.budget with Qspr.Config.wall_s = None } }
    in
    match Qspr.Mapper.create ~fabric ~config program with
    | Error e -> Error (Printf.sprintf "pristine fabric rejects the circuit: %s" e)
    | Ok ctx -> (
        match Qspr.Mapper.map Robust ctx with
        | Error e ->
            Error
              (Printf.sprintf "pristine fabric fails to map: %s" (Qspr.Mapper.error_to_string e))
        | Ok baseline ->
            let comp = Qspr.Mapper.component ctx in
            (* one task per trial, in level-major order: task index
               li*trials+i is the index [sample ~seed ~index] takes, so
               map_seeded's derived stream draws the same faults as
               [sample] does for that index *)
            let tasks = Array.concat (List.map (fun fc -> Array.make trials fc) levels) in
            let run_trial ~index ~rng fc =
              let faults = sample_with rng ~n:fc comp in
              let first_failing =
                match faults with [] -> "none" | f :: _ -> resource_kind f
              in
              (* capacity pre-check: when the degraded fabric provably cannot
                 hold the circuit (the capacity bound is infeasible), refuse
                 with a typed finding instead of burning the retry cascade's
                 attempts on a doomed instance *)
              let infeasibility degraded =
                match Fabric.Component.extract degraded with
                | Error _ -> None (* let Mapper.create name the real problem *)
                | Ok c ->
                    Estimator.Bound.infeasibility
                      ~num_traps:(Array.length (Fabric.Component.traps c))
                      (Qspr.Mapper.dag ctx)
              in
              let outcome =
                match apply fabric faults with
                | Error msg -> Unmappable msg
                | Ok { layout = degraded; _ } -> (
                    match infeasibility degraded with
                    | Some inf -> Infeasible (Analysis.Bound.infeasibility_finding inf)
                    | None -> (
                    match Qspr.Mapper.create ~fabric:degraded ~config program with
                    | Error msg -> Unmappable msg
                    | Ok dctx -> (
                        match Qspr.Mapper.map Robust dctx with
                        | Ok s ->
                            Mapped
                              {
                                latency = s.Qspr.Mapper.latency;
                                degraded = s.Qspr.Mapper.degraded;
                                attempts = List.length s.Qspr.Mapper.attempts;
                              }
                        | Error e ->
                            Failed { error = Qspr.Mapper.error_to_string e; first_failing })))
              in
              { index; faults; outcome }
            in
            let results = Ion_util.Domain_pool.map_seeded ~jobs ~seed run_trial tasks in
            let level_of li fc =
              let trials_l =
                Array.to_list (Array.sub results (li * trials) trials)
              in
              let latencies =
                List.filter_map
                  (fun t -> match t.outcome with Mapped { latency; _ } -> Some latency | _ -> None)
                  trials_l
              in
              let survived = List.length latencies in
              let infeasible =
                List.length
                  (List.filter (fun t -> match t.outcome with Infeasible _ -> true | _ -> false)
                     trials_l)
              in
              {
                fault_count = fc;
                trials = trials_l;
                survived;
                infeasible;
                mean_latency =
                  (if survived = 0 then None
                   else Some (List.fold_left ( +. ) 0.0 latencies /. float_of_int survived));
                worst_latency =
                  (if survived = 0 then None
                   else Some (List.fold_left Float.max neg_infinity latencies));
              }
            in
            let histogram =
              let tbl = Hashtbl.create 4 in
              let count key =
                Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
              in
              Array.iter
                (fun t ->
                  match t.outcome with
                  | Failed { first_failing; _ } -> count first_failing
                  | Unmappable _ | Infeasible _ ->
                      (* the degraded fabric was rejected before any mapping
                         attempt; attribute the trial to its first sampled
                         fault so it is not silently dropped from the tally *)
                      count (match t.faults with [] -> "none" | f :: _ -> resource_kind f)
                  | Mapped _ -> ())
                results;
              List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
            in
            Ok
              {
                circuit = (Qspr.Mapper.program ctx).Qasm.Program.name;
                seed;
                trials_per_level = trials;
                baseline_latency = baseline.Qspr.Mapper.latency;
                levels = List.mapi level_of levels;
                histogram;
              })
  end

let to_json r =
  Json.Obj
    [
      ("schema", Json.String "qspr-faults/2");
      ("circuit", Json.String r.circuit);
      ("seed", Json.Int r.seed);
      ("trials_per_level", Json.Int r.trials_per_level);
      ("baseline_latency_us", Json.Float r.baseline_latency);
      ( "levels",
        Json.List
          (List.map
             (fun l ->
               Json.Obj
                 [
                   ("faults", Json.Int l.fault_count);
                   ("trials", Json.Int (List.length l.trials));
                   ("survived", Json.Int l.survived);
                   ("infeasible", Json.Int l.infeasible);
                   ( "survival_rate",
                     Json.Float (float_of_int l.survived /. float_of_int (List.length l.trials)) );
                   ( "mean_latency_us",
                     match l.mean_latency with Some v -> Json.Float v | None -> Json.Null );
                   ( "worst_latency_us",
                     match l.worst_latency with Some v -> Json.Float v | None -> Json.Null );
                   ( "mean_degradation_pct",
                     match l.mean_latency with
                     | Some v -> Json.Float (100.0 *. (v -. r.baseline_latency) /. r.baseline_latency)
                     | None -> Json.Null );
                 ])
             r.levels) );
      ( "first_failing_histogram",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.histogram) );
    ]

let pp fmt r =
  Format.fprintf fmt "fault campaign: %s, seed %d, %d trial(s)/level, baseline %.1f us@,"
    r.circuit r.seed r.trials_per_level r.baseline_latency;
  Format.fprintf fmt "%8s %9s %10s %12s %12s %14s@," "faults" "survived" "infeasible" "mean (us)"
    "worst (us)" "degradation";
  List.iter
    (fun l ->
      let mean = match l.mean_latency with Some v -> Printf.sprintf "%.1f" v | None -> "-" in
      let worst = match l.worst_latency with Some v -> Printf.sprintf "%.1f" v | None -> "-" in
      let deg =
        match l.mean_latency with
        | Some v -> Printf.sprintf "%+.1f%%" (100.0 *. (v -. r.baseline_latency) /. r.baseline_latency)
        | None -> "-"
      in
      Format.fprintf fmt "%8d %5d/%-3d %10d %12s %12s %14s@," l.fault_count l.survived
        (List.length l.trials) l.infeasible mean worst deg)
    r.levels;
  match r.histogram with
  | [] -> Format.fprintf fmt "no failed trials"
  | hist ->
      Format.fprintf fmt "first-failing resources:";
      List.iter (fun (k, v) -> Format.fprintf fmt " %s=%d" k v) hist
