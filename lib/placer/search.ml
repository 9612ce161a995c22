type direction = Forward | Backward

type evaluator = int array -> (Simulator.Engine.score, Simulator.Engine.error) result

type outcome = {
  placement : int array;
  result : Simulator.Engine.score;
  direction : direction;
  runs : int;
  evaluations : int;
  latencies : float list;
  truncated : bool;
}

(* Map each start index to the index of the first start with an identical
   placement.  The local search is a pure function of its start, so only
   canonical starts need searching (or estimating). *)
let canonicalize placements =
  let tbl = Hashtbl.create (2 * Array.length placements) in
  Array.mapi
    (fun i p ->
      match Hashtbl.find_opt tbl p with
      | Some j -> j
      | None ->
          Hashtbl.add tbl p i;
          i)
    placements

(* Indices of the [k] best-estimated candidates among [uniques], returned in
   ascending start order so the merge keeps sequential tie-breaks.
   Estimate ties are broken by start index, making the selection a pure
   function of (placements, estimate). *)
let select_top_k ~k scores uniques =
  let order = Array.init (Array.length uniques) Fun.id in
  Array.sort
    (fun x y ->
      match Float.compare scores.(x) scores.(y) with
      | 0 -> Int.compare uniques.(x) uniques.(y)
      | c -> c)
    order;
  let keep = Array.map (fun x -> uniques.(x)) (Array.sub order 0 k) in
  Array.sort Int.compare keep;
  keep

(* Anytime evaluation: map [f] over [items] with [amap], in fixed-size
   chunks with an [out_of_time] poll between them when a poll is given
   (at once otherwise).  jobs=1 and jobs=N stay bit-identical over
   whichever prefix was evaluated; where the wall-clock cut lands is
   inherently run-dependent. *)
let chunk_size = 8

let eval_prefix ?out_of_time amap f items =
  let n = Array.length items in
  let chunk = if Option.is_none out_of_time then n else chunk_size in
  let acc = ref [] in
  let taken = ref 0 in
  let stopped = ref false in
  while !taken < n && not !stopped do
    let len = min chunk (n - !taken) in
    acc := amap f (Array.sub items !taken len) :: !acc;
    taken := !taken + len;
    match out_of_time with
    | Some poll when !taken < n && poll () -> stopped := true
    | _ -> ()
  done;
  (Array.concat (List.rev !acc), !stopped)

let multistart ?pool ?prescreen ?max_evals ?out_of_time ~seed ~starts local comp ~num_qubits =
  let invalid msg = Error (Simulator.Engine.Invalid ("Search.multistart: " ^ msg)) in
  if starts < 1 then invalid "need at least one start"
  else
    match prescreen with
    | Some (k, _) when k < 1 -> invalid "prescreen_k must be at least 1"
    | _ ->
        (* Start randomness is a pure function of (seed, start index): draw
           every placement up front, then dedup, pre-screen and cap before
           the expensive local searches. *)
        let placements =
          Array.init starts (fun i ->
              Center.place_permuted (Ion_util.Rng.derive seed ~index:i) comp ~num_qubits)
        in
        let amap f arr =
          Ion_util.Domain_pool.map (Option.value pool ~default:Ion_util.Domain_pool.sequential) f arr
        in
        let canon = canonicalize placements in
        let uniques = Array.of_seq (Seq.filter (fun i -> canon.(i) = i) (Seq.init starts Fun.id)) in
        let searched =
          match prescreen with
          | Some (k, estimate) when k < Array.length uniques ->
              select_top_k ~k (amap (fun i -> estimate placements.(i)) uniques) uniques
          | _ -> uniques
        in
        (* deterministic evaluation budget: the first [max_evals] searched
           starts in start order — best-so-far over a stable prefix *)
        let searched, capped =
          match max_evals with
          | Some cap when cap < Array.length searched -> (Array.sub searched 0 (max 1 cap), true)
          | _ -> (searched, false)
        in
        let outcomes, timed_out =
          eval_prefix ?out_of_time amap (fun i -> local placements.(i)) searched
        in
        let slot = Array.make starts (-1) in
        Array.iteri (fun s _ -> slot.(searched.(s)) <- s) outcomes;
        (* Merge in start order, exactly as a sequential loop visits the
           runs: duplicates replay their canonical start's search,
           unsearched starts contribute nothing, the first error wins and
           latency ties keep the earliest start. *)
        let best = ref None and latencies = ref [] and runs = ref 0 and error = ref None in
        for i = 0 to starts - 1 do
          let s = slot.(canon.(i)) in
          if !error = None && s >= 0 then
            match outcomes.(s) with
            | Error e -> error := Some e
            | Ok o -> (
                latencies := List.rev_append o.latencies !latencies;
                runs := !runs + o.runs;
                match !best with
                | Some b
                  when not (o.result.Simulator.Engine.latency < b.result.Simulator.Engine.latency) ->
                    ()
                | _ -> best := Some o)
        done;
        let evaluations =
          Array.fold_left
            (fun acc -> function Ok o -> acc + o.evaluations | Error _ -> acc)
            0 outcomes
        in
        (match (!error, !best) with
        | Some e, _ -> Error e
        | None, None -> invalid "no successful run"
        | None, Some b ->
            Ok
              {
                b with
                runs = !runs;
                evaluations;
                latencies = List.rev !latencies;
                truncated = capped || timed_out;
              })
