(* Placement-quality study: how the MVFB and Monte-Carlo placers trade
   latency against search effort (the paper's Table 1 / Section IV.A
   sensitivity analysis, on one circuit).

   Run with:  dune exec examples/placer_study.exe *)

let () =
  let circuit = "[[9,1,3]]" in
  let program = List.assoc circuit (Circuits.Qecc.all ()) in
  let fabric = Fabric.Layout.quale_45x85 () in
  Printf.printf "circuit %s on the 45x85 fabric; paper timing parameters\n\n" circuit;
  Printf.printf "%6s %12s %12s %14s %12s\n" "m" "MVFB (us)" "MVFB runs" "MC same runs" "MC (us)";
  List.iter
    (fun m ->
      let config = Qspr.Config.(default |> with_m m) in
      let ctx =
        match Qspr.Mapper.create ~fabric ~config program with
        | Ok c -> c
        | Error e -> failwith e
      in
      let mvfb = match Qspr.Mapper.map Mvfb ctx with Ok s -> s | Error e -> failwith (Qspr.Mapper.error_to_string e) in
      let mc =
        let runs = Qspr.Config.with_m mvfb.Qspr.Mapper.placement_runs in
        match Qspr.Mapper.(map Monte_carlo (with_search runs ctx)) with
        | Ok s -> s
        | Error e -> failwith (Qspr.Mapper.error_to_string e)
      in
      Printf.printf "%6d %12.0f %12d %14d %12.0f\n" m mvfb.Qspr.Mapper.latency
        mvfb.Qspr.Mapper.placement_runs mc.Qspr.Mapper.placement_runs mc.Qspr.Mapper.latency)
    [ 1; 2; 5; 10; 25 ];
  print_newline ();
  (* distribution of run latencies within one MVFB search: the local
     neighborhood search visibly improves over its own starting points *)
  let config = Qspr.Config.(default |> with_m 5) in
  let ctx =
    match Qspr.Mapper.create ~fabric ~config program with Ok c -> c | Error e -> failwith e
  in
  let sol = match Qspr.Mapper.map Mvfb ctx with Ok s -> s | Error e -> failwith (Qspr.Mapper.error_to_string e) in
  let lats = sol.Qspr.Mapper.run_latencies in
  let best = List.fold_left Float.min Float.infinity lats in
  let worst = List.fold_left Float.max 0.0 lats in
  Printf.printf "within MVFB (m=5): %d runs, best %.0f us, worst %.0f us, mean %.0f us\n"
    (List.length lats) best worst
    (Ion_util.Stats.mean lats);
  Printf.printf "winning direction: %s\n"
    (match sol.Qspr.Mapper.direction with
    | Placer.Mvfb.Forward -> "forward (QIDG order)"
    | Placer.Mvfb.Backward -> "backward (UIDG order, trace reversed)")
