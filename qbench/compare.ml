(* Compare benchmark results of a parent commit and a change:

     compare.exe PARENT_DIR CHANGE_DIR [BENCHMARK.json]

   Each directory holds one file per run: the run's standard output.  Runs
   are grouped by workload (from the context line) and paired in file-name
   order, so name the files so that the i-th parent run and the i-th change
   run were made back to back.  For every workload and metric the helper
   prints each side's median and quartiles, the share of pairs the change
   won, and one verdict (README.md, "Comparing two commits"). *)

module Json = Ion_util.Json

type spec = { better_lower : bool; bound : float option }

let read_file path = In_channel.with_open_text path In_channel.input_all

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let parse_json what s = match Json.parse s with Ok j -> j | Error e -> die "%s: %s" what e

let specs path =
  let doc = parse_json path (read_file path) in
  let section key =
    match Json.member key doc with
    | Some (Json.List l) ->
        List.filter_map
          (fun m ->
            match (Json.member "name" m, Json.member "better" m) with
            | Some (Json.String name), Some (Json.String better) ->
                let bound =
                  match Json.member "bound" m with
                  | Some (Json.Float b) -> Some b
                  | Some (Json.Int b) -> Some (Float.of_int b)
                  | _ -> None
                in
                Some (name, { better_lower = String.equal better "lower"; bound })
            | _ -> None)
          l
    | _ -> []
  in
  section "end_to_end" @ section "per_layer"

(* one run: its workload and metric values *)
let read_run path =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (read_file path))
  in
  let workload =
    List.find_map
      (fun l ->
        match Json.parse l with
        | Ok j -> (
            match Option.bind (Json.member "qbench_context" j) (Json.member "workload") with
            | Some (Json.String w) -> Some w
            | _ -> None)
        | Error _ -> None)
      lines
  in
  let last = match List.rev lines with l :: _ -> l | [] -> die "%s is empty" path in
  let metrics =
    match Json.member "metrics" (parse_json path last) with
    | Some (Json.Obj ms) ->
        List.filter_map
          (fun (name, m) ->
            match Json.member "value" m with
            | Some (Json.Float v) -> Some (name, v)
            | Some (Json.Int v) -> Some (name, Float.of_int v)
            | _ -> None)
          ms
    | _ -> die "%s: last line has no metrics" path
  in
  match workload with Some w -> (w, metrics) | None -> die "%s: no context line" path

let runs dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> read_run (Filename.concat dir f))

(* Python's statistics.quantiles(data, n=4), default exclusive method *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. Float.of_int (4 - delta)) +. (a.(j) *. Float.of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let verdict spec ~parent ~change =
  let better a b = if spec.better_lower then a < b else a > b in
  let p1, pm, p3 = quartiles parent and _, cm, _ = quartiles change in
  let rec pair ps cs = match (ps, cs) with p :: ps, c :: cs -> (p, c) :: pair ps cs | _ -> [] in
  let pairs = pair parent change in
  let n = Float.of_int (List.length pairs) in
  let share f = if n = 0.0 then 0.0 else Float.of_int (List.length (List.filter f pairs)) /. n in
  let won = share (fun (p, c) -> better c p) and lost = share (fun (p, c) -> better p c) in
  let resolved = Float.abs (cm -. pm) > p3 -. p1 in
  let spread = if pm = 0.0 then 0.0 else (p3 -. p1) /. Float.abs pm in
  let worse_by =
    if pm = 0.0 then 0.0 else (if spec.better_lower then cm -. pm else pm -. cm) /. Float.abs pm
  in
  let all_better = List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change in
  let v =
    if won >= 0.9 && resolved && better cm pm then "improved"
    else
      match spec.bound with
      | Some b when spread > b && not all_better -> "unresolved"
      | Some b when worse_by > b -> "worse"
      | Some _ -> "unchanged"
      | None -> if lost >= 0.9 && resolved && better pm cm then "worse" else "unresolved"
  in
  (won, v)

let () =
  let parent_dir, change_dir, bench =
    match Array.to_list Sys.argv with
    | [ _; p; c ] -> (p, c, "BENCHMARK.json")
    | [ _; p; c; b ] -> (p, c, b)
    | _ -> die "usage: compare.exe PARENT_DIR CHANGE_DIR [BENCHMARK.json]"
  in
  let specs = specs bench in
  let parent = runs parent_dir and change = runs change_dir in
  let workloads = List.sort_uniq compare (List.map fst parent) in
  let values rs w name =
    List.filter_map (fun (w', ms) -> if String.equal w w' then List.assoc_opt name ms else None) rs
  in
  Printf.printf "%-17s %-28s %-32s %-32s %6s  %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "won" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (name, spec) ->
          match (values parent w name, values change w name) with
          | [], _ | _, [] -> ()
          | p, c ->
              let q (a, m, b) = Printf.sprintf "%.6g [%.6g, %.6g]" m a b in
              let won, v = verdict spec ~parent:p ~change:c in
              Printf.printf "%-17s %-28s %-32s %-32s %5.0f%%  %s\n" w name (q (quartiles p))
                (q (quartiles c)) (100.0 *. won) v)
        specs)
    workloads
