(* The benchmark entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints one context line, then as its last line the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1, which also writes
   the spans to qbench/out/. *)

open Qbench
module Json = Ion_util.Json

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " (List.map Gen.name Gen.all) );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("qbench: " ^ s); exit 2) fmt in
  (match List.find_opt (fun v -> Sys.getenv_opt v <> None) Bench.env_overrides with
  | Some v -> fail "%s is set; it would change the mapper's configuration. Unset it and rerun." v
  | None -> ());
  let w =
    match Gen.of_name !workload with
    | Some w -> w
    | None -> fail "unknown workload %S\n%s" !workload usage
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if not (!seconds > 0.0) then fail "--seconds must be positive";
  let trace_out =
    if !trace = 0 then None
    else begin
      let dir = Filename.concat "qbench" "out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Some (Filename.concat dir (Printf.sprintf "trace-%s-%d.json" (Gen.name w) !seed))
    end
  in
  let r = Bench.run w ~seed:!seed ~seconds:!seconds ~trace_out in
  let metrics = if !trace = 1 then r.Bench.per_layer else r.Bench.end_to_end in
  let metric (m : Bench.metric) =
    ( m.Bench.name,
      Json.Obj [ ("value", Json.Float m.Bench.value); ("unit", Json.String m.Bench.unit_) ] )
  in
  print_endline
    (Json.to_string ~indent:false (Json.Obj [ ("qbench_context", Json.Obj r.Bench.context) ]));
  print_endline
    (Json.to_string ~indent:false
       (Json.Obj
          [
            ("correct", Json.Bool (r.Bench.failed = 0));
            ("attempted", Json.Int r.Bench.attempted);
            ("failed", Json.Int r.Bench.failed);
            ("metrics", Json.Obj (List.map metric metrics));
          ]))
