(* Tests of the static-analysis subsystem: the shared finding type, the
   program/fabric/config passes, the independent trace certifier (including
   its rejection of forged traces) and the parallel-determinism detector. *)

module F = Analysis.Finding
module Certify = Analysis.Certify

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let kinds fs = List.filter_map F.kind fs

let has_kind k fs = List.mem k (kinds fs)

let parse_prog src =
  match Qasm.Parser.parse src with Ok p -> p | Error e -> Alcotest.failf "parse: %s" e

let parse_fabric src =
  match Fabric.Layout.parse src with Ok l -> l | Error e -> Alcotest.failf "fabric: %s" e

let read_file path = In_channel.with_open_text path In_channel.input_all

(* [strategy] on [ctx] at [m] seeds or runs, on [jobs] domains, routing
   only the [prescreen] best-estimated candidates *)
let map_at ~m ?(jobs = 1) ?prescreen strategy ctx =
  Qspr.Mapper.map strategy
    (Qspr.Mapper.with_search
       Qspr.Config.(fun c -> c |> with_m m |> with_jobs jobs |> with_prescreen prescreen)
       ctx)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------- findings *)

let test_finding_exit_codes () =
  let f sev = F.make ~pass:"t" ~kind:"k" sev "msg" in
  check_int "clean" 0 (F.exit_code []);
  check_int "hints only" 0 (F.exit_code [ f F.Hint ]);
  check_int "warning" 1 (F.exit_code [ f F.Hint; f F.Warning ]);
  check_int "error wins" 2 (F.exit_code [ f F.Warning; f F.Error; f F.Hint ]);
  check_bool "worst" true (F.worst [ f F.Warning; f F.Hint ] = Some F.Warning);
  match F.sort [ f F.Hint; f F.Error; f F.Warning ] with
  | [ a; b; c ] ->
      check_bool "sorted" true
        (a.F.severity = F.Error && b.F.severity = F.Warning && c.F.severity = F.Hint)
  | _ -> Alcotest.fail "sort changed length"

let test_finding_payload () =
  let f =
    F.make ~pass:"p" ~kind:"some-kind" ~loc:(F.Qubit 3)
      ~extra:[ ("n", Ion_util.Json.Int 7) ]
      F.Warning "qubit %d misbehaves" 3
  in
  check_bool "kind" true (F.kind f = Some "some-kind");
  check_bool "message" true (f.F.message = "qubit 3 misbehaves");
  let s = Ion_util.Json.to_string (F.report_json [ f ]) in
  check_bool "report mentions schema" true (contains_sub s "qspr-findings/1");
  check_bool "report carries extra" true (contains_sub s "\"n\": 7")

(* ------------------------------------------------------------- program *)

let test_program_initialization () =
  let fs =
    Analysis.Program_check.check
      (parse_prog "QUBIT a\nQUBIT b,0\nQUBIT c,0\nH a\nC-X a,b\nMeasZ a\nMeasZ b")
  in
  check_bool "use-before-init" true (has_kind "use-before-init" fs);
  check_bool "dead qubit c" true (has_kind "dead-qubit" fs);
  check_bool "non-unitary hint" true (has_kind "non-unitary" fs);
  check_int "exit 1 (warnings)" 1 (F.exit_code fs)

let test_program_prepz_initializes () =
  let fs = Analysis.Program_check.check (parse_prog "QUBIT a\nPrepZ a\nH a\nMeasZ a") in
  check_bool "PrepZ counts as init" false (has_kind "use-before-init" fs)

let test_program_never_measured () =
  let fs =
    Analysis.Program_check.check (parse_prog "QUBIT a,0\nQUBIT b,0\nH a\nH b\nMeasZ a")
  in
  check_bool "b never measured" true (has_kind "never-measured" fs);
  (* no measurement anywhere -> no hint (unitary circuits don't measure) *)
  let fs2 = Analysis.Program_check.check (parse_prog "QUBIT a,0\nQUBIT b,0\nH a\nH b") in
  check_bool "unitary program exempt" false (has_kind "never-measured" fs2)

let test_program_removable_and_commuting () =
  let fs = Analysis.Program_check.check (parse_prog "QUBIT a,0\nQUBIT b,0\nH a\nH a\nC-X a,b") in
  check_bool "removable H.H" true (has_kind "removable-gates" fs);
  let fs2 =
    Analysis.Program_check.check
      (parse_prog "QUBIT a,0\nQUBIT b,0\nQUBIT c,0\nC-X a,b\nC-X a,c")
  in
  check_bool "shared control commutes" true (has_kind "commuting-pairs" fs2);
  let fs3 = Analysis.Program_check.check (parse_prog "QUBIT a,0\nQUBIT b,0\nC-X a,b\nC-X a,b") in
  (* identical CNOTs cancel: removable, and dependent (WAW) so not commuting *)
  check_bool "dependent pair not flagged" false (has_kind "commuting-pairs" fs3)

let test_program_basis_hint () =
  let fs = Analysis.Program_check.check (parse_prog "QUBIT a,0\nQUBIT b,0\nC-Z a,b") in
  check_bool "noncx hint" true (has_kind "noncx-basis" fs);
  let fs2 = Analysis.Program_check.check (parse_prog "QUBIT a,0\nQUBIT b,0\nC-X a,b") in
  check_bool "cx-only clean" false (has_kind "noncx-basis" fs2)

let test_program_parse_error () =
  let fs = Analysis.Program_check.check_result (Qasm.Parser.parse_located "H ghost") in
  check_bool "parse error finding" true (has_kind "parse-error" fs);
  check_bool "finding carries line:col" true
    (List.exists
       (fun f ->
         match f.F.loc with F.Source { line = 1; col = 3; _ } -> true | _ -> false)
       fs);
  check_int "exit 2" 2 (F.exit_code fs)

let test_program_parse_error_openqasm () =
  (* an OpenQASM error points at the offending token, not the line start *)
  let p = "corpus/bad/openqasm_register.qasm" in
  let fs = Analysis.Program_check.check_result (Qasm.Parser.parse_located ~file:p (read_file p)) in
  check_bool "unknown register at its token" true
    (List.exists
       (fun f ->
         F.kind f = Some "parse-error"
         && match f.F.loc with F.Source { file; line = 5; col = 9 } -> file = Some p | _ -> false)
       fs)

(* -------------------------------------------------------------- fabric *)

let test_fabric_bottleneck () =
  let lay = parse_fabric (read_file "corpus/bad/bottleneck.fabric") in
  (match Analysis.Fabric_check.bottleneck_junctions lay with
  | [ (c, s, l) ] ->
      check_int "junction x" 2 c.Ion_util.Coord.x;
      check_int "junction y" 0 c.Ion_util.Coord.y;
      check_int "small side" 1 s;
      check_bool "large side" true (l = 2)
  | other -> Alcotest.failf "expected one bottleneck, got %d" (List.length other));
  check_bool "warning emitted" true (has_kind "bottleneck" (Analysis.Fabric_check.check lay))

let test_fabric_mesh_has_no_bottleneck () =
  (* a 2D mesh has alternative paths around every junction *)
  let lay =
    Fabric.Layout.make_grid ~width:25 ~height:15 ~pitch_x:8 ~pitch_y:7 ~margin:2
      ~traps_per_channel:1 ()
  in
  check_int "no cut-vertex junctions" 0
    (List.length (Analysis.Fabric_check.bottleneck_junctions lay))

let test_fabric_transit_capacity () =
  let lay = parse_fabric "T-T" in
  let fs = Analysis.Fabric_check.check ~num_qubits:5 lay in
  check_bool "transit warning" true (has_kind "transit-capacity" fs);
  check_bool "trap capacity error" true (has_kind "trap-capacity" fs);
  check_int "exit 2" 2 (F.exit_code fs)

let test_fabric_absorbs_lint () =
  let fs = Analysis.Fabric_check.check (parse_fabric (read_file "corpus/bad/disconnected.fabric")) in
  check_bool "disconnected" true (has_kind "disconnected" fs);
  check_bool "linear hint" true (has_kind "no-junctions" fs)

(* The one-shot fabric pass as it stood before the static/merge split —
   the since-removed [Fabric.Lint.check] followed by the bottleneck and
   transit additions, one extraction each — kept as the reference the
   split must reproduce finding for finding, in order. *)
let reference_lint_check ?num_qubits lay =
  let module Component = Fabric.Component in
  let module Graph = Fabric.Graph in
  let pass = "fabric" in
  match Component.extract lay with
  | Error msg -> [ F.make ~pass ~kind:"malformed" F.Error "%s" msg ]
  | Ok comp ->
      let findings = ref [] in
      let emit f = findings := f :: !findings in
      let traps = Component.traps comp in
      let ntraps = Array.length traps in
      let graph = Graph.build comp in
      if ntraps = 0 then emit (F.make ~pass ~kind:"no-traps" F.Error "fabric has no traps: no gate can execute")
      else begin
        let seen = Array.make (Graph.num_nodes graph) false in
        let q = Queue.create () in
        Queue.add (Graph.trap_node graph 0) q;
        seen.(Graph.trap_node graph 0) <- true;
        while not (Queue.is_empty q) do
          let n = Queue.pop q in
          List.iter
            (fun (e : Graph.edge) ->
              if not seen.(e.Graph.dst) then begin
                seen.(e.Graph.dst) <- true;
                Queue.add e.Graph.dst q
              end)
            (Graph.adj graph n)
        done;
        let unreachable =
          Array.to_list traps
          |> List.filter (fun (t : Component.trap) -> not seen.(Graph.trap_node graph t.Component.tid))
        in
        if unreachable <> [] then
          emit
            (F.make ~pass ~kind:"disconnected"
               ~loc:(F.Cell (List.hd unreachable).Component.tpos)
               F.Error "fabric is disconnected: %d of %d traps unreachable from trap 0 (e.g. the trap at %s)"
               (List.length unreachable) ntraps
               (Ion_util.Coord.to_string (List.hd unreachable).Component.tpos))
      end;
      (match num_qubits with
      | Some nq ->
          if ntraps < nq then
            emit
              (F.make ~pass ~kind:"trap-capacity" F.Error
                 "fabric has %d traps but the program needs %d qubits" ntraps nq)
          else if 2 * nq > ntraps then
            emit
              (F.make ~pass ~kind:"tight-capacity" F.Warning
                 "only %d traps for %d qubits: placement has little slack and congestion will be high"
                 ntraps nq)
      | None -> ());
      if Array.length (Component.junctions comp) = 0 then
        emit (F.make ~pass ~kind:"no-junctions" F.Hint "no junctions: a linear fabric (no turns are possible)");
      let dead_ends = ref 0 in
      Array.iter
        (fun (s : Component.segment) ->
          let cells = s.Component.cells in
          let len = Array.length cells in
          let dir_lo, dir_hi =
            match s.Component.orientation with
            | Fabric.Cell.Horizontal -> (Ion_util.Coord.West, Ion_util.Coord.East)
            | Fabric.Cell.Vertical -> (Ion_util.Coord.North, Ion_util.Coord.South)
          in
          let junction_end c step = Component.junction_at comp (Ion_util.Coord.step c step) <> None in
          let ends =
            (if junction_end cells.(0) dir_lo then 1 else 0)
            + if junction_end cells.(len - 1) dir_hi then 1 else 0
          in
          let serves_tap =
            Array.exists
              (fun (t : Component.trap) ->
                Array.exists (fun c -> Ion_util.Coord.equal c t.Component.tap) cells)
              traps
          in
          if ends < 2 && not serves_tap then incr dead_ends)
        (Component.segments comp);
      if !dead_ends > 0 then
        emit
          (F.make ~pass ~kind:"dead-end" F.Warning "%d dead-end channel segment(s) serve no trap: wasted fabric area"
             !dead_ends);
      F.sort !findings

let reference_fabric_check ?num_qubits ?(channel_capacity = 2) ~lint ~bottlenecks lay =
  let module Component = Fabric.Component in
  let pass = "fabric" in
  let findings = ref lint in
  let emit f = findings := f :: !findings in
  (match Component.extract lay with
  | Error _ -> ()
  | Ok comp ->
      let nb = List.length bottlenecks in
      List.iteri
        (fun i (c, s, l) ->
          if i < 5 then
            emit
              (F.make ~pass ~kind:"bottleneck" ~loc:(F.Cell c)
                 ~extra:[ ("side_a", Ion_util.Json.Int s); ("side_b", Ion_util.Json.Int l) ]
                 F.Warning
                 "junction %s is a cut vertex: all traffic between %d and %d traps serializes through it"
                 (Ion_util.Coord.to_string c) s l))
        bottlenecks;
      if nb > 5 then
        emit (F.make ~pass ~kind:"bottleneck" F.Warning "%d further cut-vertex junction(s) not listed" (nb - 5));
      (match num_qubits with
      | Some nq ->
          let nseg = Array.length (Component.segments comp) in
          let transit = channel_capacity * nseg in
          if nseg > 0 && nq > transit then
            emit
              (F.make ~pass ~kind:"transit-capacity"
                 ~extra:
                   [ ("capacity", Ion_util.Json.Int transit); ("segments", Ion_util.Json.Int nseg) ]
                 F.Warning
                 "channels hold at most %d ions in transit (capacity %d x %d segments) but the program has %d qubits: transport serializes"
                 transit channel_capacity nseg nq)
      | None -> ()));
  F.sort !findings

(* A row of seven junctions, each with a trap below: every junction is a
   cut vertex, so two are folded into the "further" finding. *)
let comb_fabric = "T-J-J-J-J-J-J-J-T\n  | | | | | | |\n  T T T T T T T"

let test_fabric_static_merge_differential () =
  let render fs = String.concat "\n" (List.map (fun f -> Format.asprintf "%a" F.pp f) fs) in
  let same label expected got =
    if expected <> got then
      Alcotest.failf "%s:\nexpected\n%s\ngot\n%s" label (render expected) (render got)
  in
  let fabrics =
    List.map
      (fun f -> (f, Fabric.Layout.parse (read_file ("corpus/bad/" ^ f))))
      [ "blocked_channel.fabric"; "bottleneck.fabric"; "dead_junction.fabric";
        "disconnected.fabric"; "tiny.fabric" ]
    @ [
        ("unparsable", Fabric.Layout.parse "T   T");
        ("no traps", Fabric.Layout.parse "--J--");
        ("comb", Fabric.Layout.parse comb_fabric);
        ("small tile", Ok (Fabric.Layout.small_tile ()));
        ("quale 45x85", Ok (Fabric.Layout.quale_45x85 ()));
      ]
  in
  List.iter
    (fun (name, r) ->
      let static = Analysis.Fabric_check.static_result r in
      match r with
      | Error msg ->
          let expected = [ F.make ~pass:"fabric" ~kind:"parse-error" F.Error "%s" msg ] in
          same name expected (Analysis.Fabric_check.merge ~num_qubits:3 static);
          same name expected (Analysis.Fabric_check.check_result r)
      | Ok lay ->
          let bottlenecks = Analysis.Fabric_check.bottleneck_junctions lay in
          let traps =
            match Fabric.Component.extract lay with
            | Ok c -> Array.length (Fabric.Component.traps c)
            | Error _ -> 0
          in
          let sweep = None :: List.init ((2 * traps) + 2) Option.some in
          List.iter
            (fun num_qubits ->
              let lint = reference_lint_check ?num_qubits lay in
              List.iter
                (fun channel_capacity ->
                  let label =
                    Printf.sprintf "%s nq=%s cap=%d" name
                      (Option.fold ~none:"-" ~some:string_of_int num_qubits)
                      channel_capacity
                  in
                  let expected =
                    reference_fabric_check ?num_qubits ~channel_capacity ~lint ~bottlenecks lay
                  in
                  same label expected
                    (Analysis.Fabric_check.merge ?num_qubits ~channel_capacity static);
                  same label expected (Analysis.Fabric_check.check ?num_qubits ~channel_capacity lay))
                [ 1; 2; 3 ])
            sweep)
    fabrics;
  (* the comb does exercise the folded bottleneck finding *)
  check_bool "comb folds bottlenecks" true
    (List.exists
       (fun f -> F.kind f = Some "bottleneck" && f.F.loc = F.Nowhere)
       (Analysis.Fabric_check.check (parse_fabric comb_fabric)))

(* -------------------------------------------------------------- config *)

let test_config_prescreen () =
  let cfg = Qspr.Config.(default |> with_m 5 |> with_prescreen (Some 5)) in
  check_bool "prescreen >= m" true
    (has_kind "prescreen-ineffective" (Analysis.Config_check.check cfg));
  let cfg2 = Qspr.Config.(default |> with_m 25 |> with_prescreen (Some 1)) in
  check_bool "prescreen k=1 hint" true
    (has_kind "prescreen-trusts-estimator" (Analysis.Config_check.check cfg2));
  let cfg3 = Qspr.Config.(default |> with_m 25 |> with_prescreen (Some 5)) in
  check_bool "sane prescreen" false
    (List.exists
       (fun k -> k = "prescreen-ineffective" || k = "prescreen-trusts-estimator")
       (kinds (Analysis.Config_check.check cfg3)))

let test_config_invalid () =
  let cfg = Qspr.Config.with_m 0 Qspr.Config.default in
  let fs = Analysis.Config_check.check cfg in
  check_bool "invalid config is an error" true (has_kind "invalid" fs);
  check_int "exit 2" 2 (F.exit_code fs)

(* The config pass reads only the config, never the host: the same
   parameters get the same findings at any [jobs], so a lint rejection in
   a deterministic service response cannot vary with the machine's cores. *)
let prop_config_findings_ignore_jobs =
  QCheck.Test.make ~name:"config findings equal at jobs 1 and 1000" ~count:200
    QCheck.(
      quad (0 -- 40) (option (0 -- 40)) (0 -- 4)
        (pair (float_bound_inclusive 20.0) (float_bound_inclusive 20.0)))
    (fun (m, prescreen, capacity, (t_turn, t_gate2)) ->
      let cfg =
        {
          Qspr.Config.(default |> with_m m |> with_prescreen prescreen) with
          Qspr.Config.timing = { Router.Timing.paper with Router.Timing.t_turn; t_gate2 };
          qspr_policy =
            { Simulator.Engine.qspr_policy with Simulator.Engine.channel_capacity = capacity };
        }
      in
      let at jobs = Analysis.Config_check.check (Qspr.Config.with_jobs jobs cfg) in
      at 1 = at 1000)

let test_config_findings_ignore_jobs () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 7 |]) prop_config_findings_ignore_jobs

(* ------------------------------------------------------------ registry *)

let test_registry_passes_documented () =
  let names = List.map (fun (p : Analysis.Registry.pass) -> p.Analysis.Registry.name) Analysis.Registry.passes in
  Alcotest.(check (list string))
    "registered passes"
    [ "program"; "fabric"; "config"; "certify"; "determinism"; "bound" ]
    names

let test_registry_lint_merges () =
  let fs =
    Analysis.Registry.lint
      ~program:(Qasm.Parser.parse_located (read_file "corpus/bad/uninitialized.qasm"))
      ~fabric:(Fabric.Layout.parse (read_file "corpus/bad/tiny.fabric"))
      ~config:Qspr.Config.default ()
  in
  check_bool "program finding present" true (has_kind "use-before-init" fs);
  check_bool "fabric hint present" true (has_kind "no-junctions" fs);
  check_bool "sorted" true (F.sort fs = fs)

let corpus_files =
  [
    `Qasm "corpus/good/bell.qasm";
    `Qasm "corpus/good/shared_control.qasm";
    `Qasm "corpus/bad/undeclared.qasm";
    `Qasm "corpus/bad/uninitialized.qasm";
    `Qasm "corpus/bad/dead_qubit.qasm";
    `Qasm "corpus/bad/cancelling.qasm";
    `Fabric "corpus/bad/disconnected.fabric";
    `Fabric "corpus/bad/tiny.fabric";
    `Fabric "corpus/bad/bottleneck.fabric";
  ]

let test_corpus_kind_coverage () =
  (* the adversarial corpus must light up a healthy spread of the finding
     vocabulary: at least 10 distinct pass/kind combinations *)
  let all =
    List.concat_map
      (fun file ->
        match file with
        | `Qasm p -> Analysis.Registry.lint ~program:(Qasm.Parser.parse_located ~file:p (read_file p)) ()
        | `Fabric p ->
            Analysis.Registry.lint
              ~program:(Ok (List.assoc "[[5,1,3]]" (Circuits.Qecc.all ())))
              ~fabric:(Fabric.Layout.parse (read_file p)) ())
      corpus_files
  in
  let distinct =
    List.sort_uniq compare (List.map (fun f -> (f.F.pass, F.kind f)) all)
  in
  check_bool
    (Printf.sprintf "%d distinct finding kinds >= 10" (List.length distinct))
    true
    (List.length distinct >= 10)

(* ------------------------------------------------------------- certify *)

let fabric_45x85 = lazy (Fabric.Layout.quale_45x85 ())

let ctx_of ?(m = 2) program =
  match
    Qspr.Mapper.create ~fabric:(Lazy.force fabric_45x85)
      ~config:(Qspr.Config.with_m m Qspr.Config.default)
      program
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "mapper: %s" e

let solution_of label = function
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: %s" label (Qspr.Mapper.error_to_string e)

let assert_certified label ctx sol =
  let cert = Certify.of_solution ctx sol in
  if not cert.Certify.valid then
    Alcotest.failf "%s: %s" label (Format.asprintf "%a" Certify.pp cert);
  check_bool (label ^ " makespan = latency") true
    (Float.abs (cert.Certify.replayed_makespan -. sol.Qspr.Mapper.latency) < 1e-6)

let test_certify_all_mappers_small () =
  (* all four placement strategies on the small Table-1 circuits *)
  List.iter
    (fun name ->
      let ctx = ctx_of (List.assoc name (Circuits.Qecc.all ())) in
      assert_certified (name ^ "/mvfb") ctx (solution_of "mvfb" (Qspr.Mapper.map Mvfb ctx));
      assert_certified (name ^ "/mc") ctx
        (solution_of "mc" (map_at ~m:2 Monte_carlo ctx));
      assert_certified (name ^ "/sa") ctx
        (solution_of "sa" (map_at ~m:2 Annealing ctx));
      assert_certified (name ^ "/center") ctx (solution_of "center" (Qspr.Mapper.map Center ctx)))
    [ "[[5,1,3]]"; "[[7,1,3]]"; "[[9,1,3]]" ]

let test_certify_large_circuits_mvfb () =
  (* the remaining Table-1 circuits, MVFB only ([[19,1,7]] historically wins
     backward, exercising the reversed-trace path) *)
  List.iter
    (fun name ->
      let ctx = ctx_of (List.assoc name (Circuits.Qecc.all ())) in
      assert_certified (name ^ "/mvfb") ctx (solution_of "mvfb" (Qspr.Mapper.map Mvfb ctx)))
    [ "[[14,8,3]]"; "[[19,1,7]]"; "[[23,1,7]]" ]

let test_certify_quale_policy () =
  let program = List.assoc "[[5,1,3]]" (Circuits.Qecc.all ()) in
  let ctx = ctx_of program in
  let sol = solution_of "quale" (Qspr.Mapper.map Quale ctx) in
  check_bool "quale solution records the QUALE policy" true
    (sol.Qspr.Mapper.policy = Simulator.Engine.quale_policy);
  assert_certified "quale" ctx sol

(* The certifier reads the capacity from the solution's recorded policy: an
   MVFB trace that puts two ions in one segment at once is valid at QSPR's
   capacity 2 and a [capacity] error once relabelled as a QUALE run. *)
let test_certify_reads_solution_policy () =
  let ctx = ctx_of (List.assoc "[[5,1,3]]" (Circuits.Qecc.all ())) in
  let sol = solution_of "mvfb" (Qspr.Mapper.map Mvfb ctx) in
  check_bool "mvfb solution records the QSPR policy" true
    (sol.Qspr.Mapper.policy = (Qspr.Mapper.config ctx).Qspr.Config.qspr_policy);
  assert_certified "mvfb" ctx sol;
  let relabelled = { sol with Qspr.Mapper.policy = Simulator.Engine.quale_policy } in
  check_bool "capacity error at the QUALE policy" true
    (List.mem "capacity" (kinds (Certify.of_solution ctx relabelled).Certify.findings))

let small_solution () =
  let ctx = ctx_of (List.assoc "[[5,1,3]]" (Circuits.Qecc.all ())) in
  (ctx, solution_of "mvfb" (Qspr.Mapper.map Mvfb ctx))

let cert_kinds_of ctx (sol : Qspr.Mapper.solution) =
  kinds (Certify.of_solution ctx sol).Certify.findings

let test_certify_rejects_teleport () =
  let ctx, sol = small_solution () in
  (* displace the departure cell of a mid-trace move: the ion teleports *)
  let tampered = ref false in
  let trace =
    List.map
      (fun cmd ->
        match cmd with
        | Router.Micro.Move { qubit; from_; to_; start; finish }
          when (not !tampered) && start > 10.0 ->
            tampered := true;
            Router.Micro.Move
              { qubit; from_ = Ion_util.Coord.make (from_.Ion_util.Coord.x + 3) from_.Ion_util.Coord.y; to_; start; finish }
        | c -> c)
      sol.Qspr.Mapper.trace
  in
  check_bool "tampered" true !tampered;
  let ks = cert_kinds_of ctx { sol with Qspr.Mapper.trace = trace } in
  check_bool "teleport detected" true (List.mem "teleport" ks || List.mem "bad-step" ks)

let test_certify_rejects_wrong_latency () =
  let ctx, sol = small_solution () in
  let cert = Certify.of_solution ctx { sol with Qspr.Mapper.latency = sol.Qspr.Mapper.latency +. 10.0 } in
  check_bool "invalid" false cert.Certify.valid;
  check_bool "latency mismatch" true (List.mem "latency-mismatch" (kinds cert.Certify.findings))

let test_certify_rejects_dropped_gate_end () =
  let ctx, sol = small_solution () in
  let dropped = ref false in
  let trace =
    List.filter
      (fun cmd ->
        match cmd with
        | Router.Micro.Gate_end _ when not !dropped ->
            dropped := true;
            false
        | _ -> true)
      sol.Qspr.Mapper.trace
  in
  check_bool "dropped" true !dropped;
  let ks = cert_kinds_of ctx { sol with Qspr.Mapper.trace = trace } in
  check_bool "unpaired gate detected" true (List.mem "gate-pairing" ks)

let test_certify_rejects_early_gate () =
  let ctx, sol = small_solution () in
  (* pull the last gate of the program to time zero: its dependencies have
     not executed, the gate pair loses its duration, the ion is elsewhere *)
  let last_start =
    List.fold_left
      (fun acc cmd ->
        match cmd with
        | Router.Micro.Gate_start { instr_id; time; _ } -> (
            match acc with
            | Some (_, t) when t >= time -> acc
            | _ -> Some (instr_id, time))
        | _ -> acc)
      None sol.Qspr.Mapper.trace
  in
  let target = match last_start with Some (id, _) -> id | None -> Alcotest.fail "no gates" in
  let trace =
    List.map
      (fun cmd ->
        match cmd with
        | Router.Micro.Gate_start { instr_id; trap; qubits; _ } when instr_id = target ->
            Router.Micro.Gate_start { instr_id; trap; qubits; time = 0.0 }
        | c -> c)
      sol.Qspr.Mapper.trace
  in
  let ks = cert_kinds_of ctx { sol with Qspr.Mapper.trace = trace } in
  check_bool "dependency violation detected" true (List.mem "dependency" ks)

let test_certify_rejects_overfull_trap () =
  let ctx, sol = small_solution () in
  let crowded = Array.make (Array.length sol.Qspr.Mapper.initial_placement) 0 in
  let ks = cert_kinds_of ctx { sol with Qspr.Mapper.initial_placement = crowded } in
  check_bool "placement rejected" true (List.mem "bad-placement" ks)

let test_certify_digest_tracks_trace () =
  let _, sol = small_solution () in
  let d1 = Certify.digest_trace sol.Qspr.Mapper.trace in
  let d2 = Certify.digest_trace sol.Qspr.Mapper.trace in
  check_bool "digest deterministic" true (Int64.equal d1 d2);
  let shifted =
    List.map
      (fun cmd ->
        match cmd with
        | Router.Micro.Turn { qubit; at; start; finish } ->
            Router.Micro.Turn { qubit; at; start = start +. 0.5; finish = finish +. 0.5 }
        | c -> c)
      sol.Qspr.Mapper.trace
  in
  check_bool "digest sensitive" false (Int64.equal d1 (Certify.digest_trace shifted))

(* The digest's specification: the Printf renderer the certifier used
   before it streamed, hashed as one string.  The streaming digest must
   agree with it on every command. *)
let reference_render buf cmd =
  let module C = Ion_util.Coord in
  match cmd with
  | Router.Micro.Move { qubit; from_; to_; start; finish } ->
      Printf.bprintf buf "M%d %d,%d>%d,%d %h %h\n" qubit from_.C.x from_.C.y to_.C.x to_.C.y
        start finish
  | Router.Micro.Turn { qubit; at; start; finish } ->
      Printf.bprintf buf "T%d %d,%d %h %h\n" qubit at.C.x at.C.y start finish
  | Router.Micro.Gate_start { instr_id; trap; qubits; time } ->
      Printf.bprintf buf "G+%d %d,%d [%s] %h\n" instr_id trap.C.x trap.C.y
        (String.concat "," (List.map string_of_int qubits))
        time
  | Router.Micro.Gate_end { instr_id; trap; qubits; time } ->
      Printf.bprintf buf "G-%d %d,%d [%s] %h\n" instr_id trap.C.x trap.C.y
        (String.concat "," (List.map string_of_int qubits))
        time

let reference_digest trace =
  let buf = Buffer.create 4096 in
  List.iter (reference_render buf) trace;
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    (Buffer.contents buf);
  !h

let special_floats =
  [
    0.0; -0.0; infinity; neg_infinity; nan; -.nan; Int64.float_of_bits 0x7ff8000000000001L;
    Int64.float_of_bits 0xfff0000000000001L; Int64.float_of_bits 1L; Int64.float_of_bits 0x800fffffffffffffL;
    Float.min_float; max_float; -.max_float; 1.0; -1.5; 0.1; 1e-300; 4.9e-324;
  ]

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (3, map Int64.float_of_bits int64);
        (1, oneofl special_floats);
        (1, map float_of_int (int_range (-1000) 1000));
      ])

let gen_int =
  QCheck.Gen.(
    frequency
      [ (4, int_range (-120) 120); (1, int); (1, oneofl [ min_int; max_int; -1; 0; -10; 10 ]) ])

let gen_command =
  let open QCheck.Gen in
  let coord = map2 Ion_util.Coord.make gen_int gen_int in
  oneof
    [
      map3
        (fun (qubit, from_, to_) start finish ->
          Router.Micro.Move { qubit; from_; to_; start; finish })
        (triple gen_int coord coord) gen_float gen_float;
      map3
        (fun (qubit, at) start finish -> Router.Micro.Turn { qubit; at; start; finish })
        (pair gen_int coord) gen_float gen_float;
      map3
        (fun (start, instr_id) (trap, qubits) time ->
          if start then Router.Micro.Gate_start { instr_id; trap; qubits; time }
          else Router.Micro.Gate_end { instr_id; trap; qubits; time })
        (pair bool gen_int)
        (pair coord (list_size (int_bound 4) gen_int))
        gen_float;
    ]

let prop_digest_matches_printf =
  QCheck.Test.make ~name:"streaming digest = Printf digest" ~count:2000
    (QCheck.make ~print:(fun t -> string_of_int (List.length t))
       QCheck.Gen.(list_size (int_bound 60) gen_command))
    (fun trace ->
      Int64.equal (Certify.digest_trace trace) (reference_digest trace)
      || QCheck.Test.fail_reportf "digest mismatch on:\n%s"
           (let b = Buffer.create 256 in
            List.iter (reference_render b) trace;
            Buffer.contents b))

let test_certify_digest_oracle () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 16 |]) prop_digest_matches_printf;
  (* every float, one at a time: a Turn carries it in two positions *)
  let at = Ion_util.Coord.make 0 0 in
  let rand = Random.State.make [| 2012 |] in
  let one x = [ Router.Micro.Turn { qubit = -7; at; start = x; finish = -.x } ] in
  List.iter
    (fun x ->
      check_bool (Printf.sprintf "%h" x) true
        (Int64.equal (Certify.digest_trace (one x)) (reference_digest (one x))))
    special_floats;
  for _ = 1 to 100_000 do
    let x = Int64.float_of_bits (Random.State.bits64 rand) in
    if not (Int64.equal (Certify.digest_trace (one x)) (reference_digest (one x))) then
      Alcotest.failf "digest mismatch on %h" x
  done

(* Digests of center-placed mappings, captured with the Printf renderer:
   the streaming digest must reproduce them bit for bit. *)
let test_certify_digest_pins () =
  List.iter
    (fun (name, pinned, commands) ->
      let ctx = ctx_of (List.assoc name (Circuits.Qecc.all ())) in
      let sol = solution_of name (Qspr.Mapper.map Center ctx) in
      check_int (name ^ " commands") commands (List.length sol.Qspr.Mapper.trace);
      Alcotest.(check string)
        (name ^ " digest")
        (Printf.sprintf "%016Lx" pinned)
        (Printf.sprintf "%016Lx" (Certify.digest_trace sol.Qspr.Mapper.trace)))
    [ ("[[5,1,3]]", 0x935a3ed70dd56555L, 182); ("[[9,1,3]]", 0xc1e89586420a6cb3L, 313) ]

(* --------------------------------------------------------- determinism *)

let test_determinism_clean_on_pool_paths () =
  let program = List.assoc "[[5,1,3]]" (Circuits.Qecc.all ()) in
  let ctx = ctx_of program in
  let checks =
    [
      ("mc", fun ~jobs -> map_at ~m:4 ~jobs Monte_carlo ctx);
      ("mvfb", fun ~jobs -> map_at ~m:2 ~jobs Mvfb ctx);
      ("mc prescreen", fun ~jobs -> map_at ~m:6 ~jobs ~prescreen:2 Monte_carlo ctx);
    ]
  in
  List.iter
    (fun (label, f) ->
      match Analysis.Determinism.check ~label ~jobs:2 f with
      | [] -> ()
      | fs -> Alcotest.failf "%s: %s" label (Format.asprintf "%a" F.pp (List.hd fs)))
    checks

let test_determinism_detects_divergence () =
  (* a search whose outcome depends on the job count must be flagged *)
  let program = List.assoc "[[5,1,3]]" (Circuits.Qecc.all ()) in
  let solution_for_seed seed =
    let ctx =
      match
        Qspr.Mapper.create ~fabric:(Lazy.force fabric_45x85)
          ~config:Qspr.Config.(default |> with_m 2 |> with_seed seed)
          program
      with
      | Ok c -> c
      | Error e -> Alcotest.failf "mapper: %s" e
    in
    map_at ~m:3 Monte_carlo ctx
  in
  let fs =
    Analysis.Determinism.check ~label:"seed-leak" ~jobs:2 (fun ~jobs -> solution_for_seed jobs)
  in
  check_bool "divergence detected" true (fs <> []);
  check_bool "all errors" true (List.for_all (fun f -> f.F.severity = F.Error) fs)

let test_determinism_diff_bitlevel () =
  let _, sol = small_solution () in
  check_bool "identical solutions clean" true (Analysis.Determinism.diff ~label:"self" sol sol = []);
  let eps_shift = { sol with Qspr.Mapper.latency = sol.Qspr.Mapper.latency *. (1.0 +. 1e-15) } in
  check_bool "one-ulp latency drift flagged" true
    (has_kind "latency-mismatch" (Analysis.Determinism.diff ~label:"ulp" sol eps_shift))

(* ------------------------------------------------------------- runner *)

let () =
  Alcotest.run "analysis"
    [
      ( "finding",
        [
          Alcotest.test_case "exit codes" `Quick test_finding_exit_codes;
          Alcotest.test_case "payload" `Quick test_finding_payload;
        ] );
      ( "program",
        [
          Alcotest.test_case "initialization" `Quick test_program_initialization;
          Alcotest.test_case "prepz initializes" `Quick test_program_prepz_initializes;
          Alcotest.test_case "never measured" `Quick test_program_never_measured;
          Alcotest.test_case "removable and commuting" `Quick test_program_removable_and_commuting;
          Alcotest.test_case "basis hint" `Quick test_program_basis_hint;
          Alcotest.test_case "parse error" `Quick test_program_parse_error;
          Alcotest.test_case "OpenQASM parse error column" `Quick test_program_parse_error_openqasm;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "bottleneck" `Quick test_fabric_bottleneck;
          Alcotest.test_case "mesh has no bottleneck" `Quick test_fabric_mesh_has_no_bottleneck;
          Alcotest.test_case "transit capacity" `Quick test_fabric_transit_capacity;
          Alcotest.test_case "absorbs lint" `Quick test_fabric_absorbs_lint;
          Alcotest.test_case "static + merge = one-shot pass" `Quick
            test_fabric_static_merge_differential;
        ] );
      ( "config",
        [
          Alcotest.test_case "prescreen" `Quick test_config_prescreen;
          Alcotest.test_case "invalid" `Quick test_config_invalid;
          Alcotest.test_case "findings ignore jobs" `Quick test_config_findings_ignore_jobs;
        ] );
      ( "registry",
        [
          Alcotest.test_case "passes documented" `Quick test_registry_passes_documented;
          Alcotest.test_case "lint merges" `Quick test_registry_lint_merges;
          Alcotest.test_case "corpus kind coverage" `Quick test_corpus_kind_coverage;
        ] );
      ( "certify",
        [
          Alcotest.test_case "all mappers, small circuits" `Quick test_certify_all_mappers_small;
          Alcotest.test_case "large circuits, mvfb" `Slow test_certify_large_circuits_mvfb;
          Alcotest.test_case "quale policy" `Quick test_certify_quale_policy;
          Alcotest.test_case "rejects teleport" `Quick test_certify_rejects_teleport;
          Alcotest.test_case "rejects wrong latency" `Quick test_certify_rejects_wrong_latency;
          Alcotest.test_case "rejects dropped gate end" `Quick test_certify_rejects_dropped_gate_end;
          Alcotest.test_case "rejects early gate" `Quick test_certify_rejects_early_gate;
          Alcotest.test_case "rejects overfull trap" `Quick test_certify_rejects_overfull_trap;
          Alcotest.test_case "digest tracks trace" `Quick test_certify_digest_tracks_trace;
          Alcotest.test_case "digest oracle" `Quick test_certify_digest_oracle;
          Alcotest.test_case "digest pins" `Quick test_certify_digest_pins;
          Alcotest.test_case "capacity from the solution's policy" `Quick
            test_certify_reads_solution_policy;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "clean on pool paths" `Quick test_determinism_clean_on_pool_paths;
          Alcotest.test_case "detects divergence" `Quick test_determinism_detects_divergence;
          Alcotest.test_case "bit-level diff" `Quick test_determinism_diff_bitlevel;
        ] );
    ]
