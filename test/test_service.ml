(* Tests for the mapping-as-a-service subsystem: wire-protocol round trips,
   every admission-control rejection tier, batch-vs-sequential bit identity
   at jobs=1 vs jobs=N, warm-vs-cold byte identity of the deterministic
   response encodings, and equivalence of a service-mapped job with an
   independent Mapper run under the same seed. *)

module Protocol = Service.Protocol
module Scheduler = Service.Scheduler
module Json = Ion_util.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let job ?fabric ?(seed = 7) ?(placer = "mvfb") ?(m = 2) ?max_evals ?max_quote_us id circuit =
  Protocol.make_job ?fabric ~seed ~placer ~m ?max_evals ?max_quote_us ~id
    (Protocol.Builtin circuit)

let limits ?(jobs = 1) ?(max_pending = 64) ?max_quote_us ?max_evals ?shed_start
    ?(max_fabrics = 8) ?(response_cache = 256) ?response_ttl_s () =
  {
    Scheduler.jobs;
    max_pending;
    max_quote_us;
    max_evals;
    shed_start;
    max_fabrics;
    response_cache;
    response_ttl_s;
  }

let stage_of (r : Protocol.response) =
  match r.Protocol.verdict with
  | Protocol.Rejected { stage; _ } -> stage
  | Protocol.Completed _ -> "<completed>"
  | Protocol.Failed _ -> "<failed>"

let det_line r = Protocol.response_to_line ~deterministic:true r

(* ------------------------------------------------------------- protocol *)

let test_job_round_trip () =
  let jobs =
    [
      Protocol.make_job ~id:"bare" (Protocol.Builtin "[[5,1,3]]");
      Protocol.make_job ~id:"qasm" (Protocol.Inline_qasm "qubit a\nqubit b\ncnot a, b\n");
      job ~fabric:"T-T" ~seed:41 ~placer:"sa" ~m:9 ~max_evals:50 ~max_quote_us:123.5 "full"
        "[[7,1,3]]";
    ]
  in
  List.iter
    (fun j ->
      match Protocol.job_of_line (Protocol.job_to_line j) with
      | Ok j' -> check_bool j.Protocol.id true (j = j')
      | Error e -> Alcotest.failf "%s: round trip failed: %s" j.Protocol.id e)
    jobs

let test_job_defaults () =
  match Protocol.job_of_line {|{"schema":"qspr-job/1","id":"d","circuit":{"builtin":"x"}}|} with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok j ->
      check_int "default seed" 2012 j.Protocol.seed;
      check_string "default placer" "portfolio" j.Protocol.placer;
      check_bool "no fabric" true (j.Protocol.fabric = None);
      check_bool "no budgets" true (j.Protocol.m = None && j.Protocol.max_evals = None)

let test_job_decode_errors () =
  let bad =
    [
      ("not json at all", "not json");
      ("wrong schema", {|{"schema":"qspr-job/9","id":"x","circuit":{"builtin":"c"}}|});
      ("missing id", {|{"schema":"qspr-job/1","circuit":{"builtin":"c"}}|});
      ("missing circuit", {|{"schema":"qspr-job/1","id":"x"}|});
      ("both circuit forms", {|{"schema":"qspr-job/1","id":"x","circuit":{"builtin":"c","qasm":"q"}}|});
      ("bad seed type", {|{"schema":"qspr-job/1","id":"x","circuit":{"builtin":"c"},"seed":"7"}|});
    ]
  in
  List.iter
    (fun (name, line) ->
      check_bool name true (Result.is_error (Protocol.job_of_line line)))
    bad

let test_response_round_trip () =
  let attempts =
    [
      { Protocol.stage = "mvfb"; seed = 7; outcome = Ok 512.0 };
      { Protocol.stage = "reseed"; seed = 8; outcome = Error "no legal placement" };
    ]
  in
  let responses =
    [
      {
        Protocol.job_id = "ok";
        verdict =
          Protocol.Completed
            {
              latency_us = 652.0;
              quote_us = 805.0;
              lower_bound_us = 510.0;
              bound_kind = "critical-path";
              optimality_gap = Some 0.278431372549;
              placement_runs = 11;
              engine_evals = 11;
              degraded = false;
              direction = "forward";
              shed = "none";
              certificate_digest = 0xc156d97d0e778a9eL;
              certificate_valid = true;
              attempts;
            };
        cache =
          Some
            {
              Protocol.hits = 3;
              misses = 1;
              shared_hits = 2;
              bound_builds = 1;
              warm_paths = 4;
              fabric_evictions = 1;
            };
        cpu_s = 0.25;
        cached = false;
      };
      {
        Protocol.job_id = "no";
        verdict =
          Protocol.Rejected
            {
              stage = "lint";
              reason = "2 lint error(s)";
              quote_us = None;
              findings = [ Json.Obj [ ("severity", Json.String "error") ] ];
            };
        cache = None;
        cpu_s = 0.0;
        cached = false;
      };
      {
        Protocol.job_id = "boom";
        verdict = Protocol.Failed { reason = "engine: deadlock"; quote_us = Some 9.5; attempts };
        cache = None;
        cpu_s = 0.125;
        cached = false;
      };
    ]
  in
  List.iter
    (fun r ->
      match Protocol.response_of_line (Protocol.response_to_line r) with
      | Ok r' -> check_bool r.Protocol.job_id true (r = r')
      | Error e -> Alcotest.failf "%s: round trip failed: %s" r.Protocol.job_id e)
    responses;
  (* the deterministic encoding drops exactly the observability sections *)
  match Protocol.response_of_line (det_line (List.hd responses)) with
  | Error e -> Alcotest.failf "deterministic decode: %s" e
  | Ok r' ->
      check_bool "cache omitted" true (r'.Protocol.cache = None);
      check_bool "cpu_s omitted" true (r'.Protocol.cpu_s = 0.0);
      check_bool "verdict preserved" true (r'.Protocol.verdict = (List.hd responses).Protocol.verdict)

let test_exit_code_tiers () =
  let ok = { Protocol.job_id = "a"; verdict = Protocol.Completed { latency_us = 1.0; quote_us = 1.0; lower_bound_us = 1.0; bound_kind = "critical-path"; optimality_gap = Some 0.0; placement_runs = 1; engine_evals = 1; degraded = false; direction = "forward"; shed = "none"; certificate_digest = 0L; certificate_valid = true; attempts = [] }; cache = None; cpu_s = 0.0; cached = false } in
  let failed = { ok with Protocol.verdict = Protocol.Failed { reason = "x"; quote_us = None; attempts = [] } } in
  let rejected = { ok with Protocol.verdict = Protocol.Rejected { stage = "lint"; reason = "x"; quote_us = None; findings = [] } } in
  check_int "all ok" 0 (Protocol.exit_code [ ok; ok ]);
  check_int "failure dominates ok" 1 (Protocol.exit_code [ ok; failed ]);
  check_int "rejection dominates failure" 2 (Protocol.exit_code [ failed; rejected; ok ]);
  check_int "empty" 0 (Protocol.exit_code [])

let test_json_parse_edges () =
  let round s =
    match Json.parse s with
    | Ok v -> Json.to_string ~indent:false v
    | Error e -> Alcotest.failf "parse %s: %s" s e
  in
  check_string "escapes" {|{"a":"x\"y\\z\n"}|} (round {| { "a" : "x\"y\\z\n" } |});
  check_string "unicode escape" "\"\xe2\x9c\x93\"" (round {|"\u2713"|});
  check_string "surrogate pair" "\"\xf0\x9f\x90\xab\"" (round {|"\ud83d\udc2b"|});
  check_string "nested" {|[1,-2.5,true,null,{"k":[]}]|} (round {|[1, -2.5, true, null, {"k":[]}]|});
  List.iter
    (fun s -> check_bool s true (Result.is_error (Json.parse s)))
    [ "{\"a\":1} trailing"; "[1,]"; "\"\\ud83d\""; "nul"; "{\"a\" 1}"; "\"unterminated" ]

(* ------------------------------------------------------------ admission *)

let test_reject_unknown_placer () =
  let config = Qspr.Config.(default |> with_sa_moves 500) in
  let t = Scheduler.create ~config () in
  let r = Scheduler.submit t (job ~placer:"magic" "p" "[[5,1,3]]") in
  check_string "stage" "request" (stage_of r);
  check_int "exit code" 2 (Protocol.exit_code [ r ]);
  let names = List.map fst Qspr.Mapper.strategies in
  (match r.Protocol.verdict with
  | Protocol.Rejected { reason; _ } ->
      check_string "the refusal lists the strategy table"
        ("unknown placer magic (" ^ String.concat "|" names ^ ")")
        reason
  | _ -> Alcotest.fail "expected a rejection");
  (* every name in the table is admitted and maps *)
  List.iter
    (fun placer ->
      let r = Scheduler.submit t (job ~placer placer "[[5,1,3]]") in
      check_string (placer ^ " is admitted and maps") "<completed>" (stage_of r))
    names

let test_reject_lint () =
  let t = Scheduler.create () in
  (* an unknown builtin and unparsable QASM both surface as lint findings *)
  let r1 = Scheduler.submit t (job "unknown" "no-such-circuit") in
  check_string "unknown builtin stage" "lint" (stage_of r1);
  let r2 =
    Scheduler.submit t
      (Protocol.make_job ~id:"garbage" (Protocol.Inline_qasm "this is not qasm %%"))
  in
  check_string "bad qasm stage" "lint" (stage_of r2);
  (match r2.Protocol.verdict with
  | Protocol.Rejected { findings; _ } ->
      check_bool "findings attached" true (findings <> [])
  | _ -> Alcotest.fail "expected a rejection");
  let s = Scheduler.stats t in
  check_int "both rejections counted" 2 s.Scheduler.rejected

let test_reject_budget () =
  let t = Scheduler.create ~limits:(limits ~max_evals:10 ()) () in
  let r = Scheduler.submit t (job ~max_evals:100 "greedy" "[[5,1,3]]") in
  check_string "stage" "budget" (stage_of r)

let test_reject_quote () =
  let t = Scheduler.create () in
  let r = Scheduler.submit t (job ~max_quote_us:0.5 "impatient" "[[5,1,3]]") in
  check_string "client ceiling stage" "quote" (stage_of r);
  (match r.Protocol.verdict with
  | Protocol.Rejected { quote_us = Some q; _ } -> check_bool "quote attached" true (q > 0.5)
  | _ -> Alcotest.fail "expected a rejection carrying the quote");
  let t2 = Scheduler.create ~limits:(limits ~max_quote_us:0.5 ()) () in
  let r2 = Scheduler.submit t2 (job "any" "[[5,1,3]]") in
  check_string "service ceiling stage" "quote" (stage_of r2)

let test_reject_queue () =
  let t = Scheduler.create ~limits:(limits ~max_pending:1 ()) () in
  match Scheduler.run_batch t [ job "first" "[[5,1,3]]"; job "second" "[[5,1,3]]" ] with
  | [ r1; r2 ] ->
      check_string "first admitted" "<completed>" (stage_of r1);
      check_string "second queued out" "queue" (stage_of r2)
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs)

let test_handle_line_malformed () =
  let t = Scheduler.create () in
  let line = Scheduler.handle_line t "{\"schema\":\"qspr-job/1\"" in
  match Protocol.response_of_line line with
  | Error e -> Alcotest.failf "response line must decode: %s" e
  | Ok r ->
      check_string "stage" "request" (stage_of r);
      check_string "status" "rejected" (Protocol.status_of r.Protocol.verdict)

(* ---------------------------------------------- determinism and sharing *)

let batch_jobs () =
  [
    job ~seed:7 "a" "[[5,1,3]]";
    job ~seed:8 "b" "[[5,1,3]]";
    job ~seed:7 "c" "[[7,1,3]]";
  ]

let test_batch_matches_sequential_at_any_width () =
  let det t jobs = List.map det_line (Scheduler.run_batch t jobs) in
  let seq =
    let t = Scheduler.create ~limits:(limits ~jobs:1 ()) () in
    List.map (fun j -> det_line (Scheduler.submit t j)) (batch_jobs ())
  in
  let batch1 = det (Scheduler.create ~limits:(limits ~jobs:1 ()) ()) (batch_jobs ()) in
  let batch4 = det (Scheduler.create ~limits:(limits ~jobs:4 ()) ()) (batch_jobs ()) in
  List.iteri (fun i (a, b) -> check_string (Printf.sprintf "seq vs batch[%d]" i) a b)
    (List.combine seq batch1);
  List.iteri (fun i (a, b) -> check_string (Printf.sprintf "jobs=1 vs jobs=4[%d]" i) a b)
    (List.combine batch1 batch4)

let test_warm_cache_is_invisible_and_cheaper () =
  (* response caching off: the point here is that the *recomputed* warm run
     is byte-identical, not that the cached bytes are replayed *)
  let t = Scheduler.create ~limits:(limits ~response_cache:0 ()) () in
  let j = job ~seed:7 "same" "[[5,1,3]]" in
  let cold = Scheduler.submit t j in
  let warm = Scheduler.submit t j in
  check_string "byte-identical deterministic encodings" (det_line cold) (det_line warm);
  match (cold.Protocol.cache, warm.Protocol.cache) with
  | Some c, Some w ->
      check_bool "cold job starts with nothing shared" true
        (c.Protocol.shared_hits = 0 && c.Protocol.warm_paths = 0);
      check_bool "warm job starts from the snapshot" true (w.Protocol.warm_paths > 0);
      check_bool
        (Printf.sprintf "strictly fewer searches warm (%d) than cold (%d)" w.Protocol.misses
           c.Protocol.misses)
        true
        (w.Protocol.misses < c.Protocol.misses);
      check_bool "warm lookups served by the shared snapshot" true (w.Protocol.shared_hits > 0)
  | _ -> Alcotest.fail "expected cache counters on both responses"

let test_service_matches_independent_mapper () =
  let t = Scheduler.create () in
  let r = Scheduler.submit t (job ~seed:7 "svc" "[[5,1,3]]") in
  let program =
    match List.assoc_opt "[[5,1,3]]" (Circuits.Qecc.all ()) with
    | Some p -> p
    | None -> Alcotest.fail "builtin [[5,1,3]] missing"
  in
  let config =
    Qspr.Config.(
      default |> with_seed 7 |> with_m 2 |> with_jobs 1
      |> with_budget no_budget)
  in
  let ctx =
    match Qspr.Mapper.create ~fabric:(Fabric.Layout.quale_45x85 ()) ~config program with
    | Ok c -> c
    | Error e -> Alcotest.failf "Mapper.create: %s" e
  in
  let sol =
    match Qspr.Mapper.map Mvfb ctx with
    | Ok s -> s
    | Error e -> Alcotest.failf "map Mvfb: %s" (Qspr.Mapper.error_to_string e)
  in
  match r.Protocol.verdict with
  | Protocol.Completed c ->
      check_bool "latency bits identical" true
        (Int64.equal (Int64.bits_of_float c.latency_us)
           (Int64.bits_of_float sol.Qspr.Mapper.latency));
      check_int "engine evals identical" sol.Qspr.Mapper.engine_evals c.engine_evals;
      let cert = Analysis.Certify.of_solution ctx sol in
      check_bool "same certificate digest" true
        (Int64.equal cert.Analysis.Certify.digest c.certificate_digest);
      check_bool "certificate valid" true c.certificate_valid
  | _ -> Alcotest.failf "expected completion, got %s" (stage_of r)

let test_stats_and_fabric_registry () =
  let t = Scheduler.create () in
  ignore (Scheduler.submit t (job ~seed:7 "one" "[[5,1,3]]"));
  ignore (Scheduler.submit t (job ~seed:8 "two" "[[7,1,3]]"));
  ignore (Scheduler.submit t (job ~placer:"magic" "bad" "[[5,1,3]]"));
  let s = Scheduler.stats t in
  check_int "one shared fabric" 1 s.Scheduler.fabrics;
  check_int "completions" 2 s.Scheduler.completed;
  check_int "rejections" 1 s.Scheduler.rejected;
  check_int "failures" 0 s.Scheduler.failed;
  check_bool "warm paths registered" true (s.Scheduler.shared_paths > 0)

(* Lint reads the fabric registry without touching it: a job refused at
   lint never registers its fabric, and a refusal on a registered fabric
   does not refresh that fabric's recency. *)
let test_lint_refusal_does_not_register () =
  let t = Scheduler.create () in
  let undeclared = Protocol.Inline_qasm "QUBIT a\nQUBIT b\nH a\nC-X a,ghost\n" in
  let seven = " TTTTTTT \nJ-------J" in
  let refused =
    [
      (* the program is at fault, the fabric is fine *)
      Protocol.make_job ~fabric:seven ~placer:"center" ~id:"program" undeclared;
      (* two traps cannot hold [[5,1,3]] *)
      job ~fabric:"T-T" ~placer:"center" "capacity" "[[5,1,3]]";
      (* disconnected fabric *)
      job ~fabric:"T-- --T" ~placer:"center" "islands" "[[5,1,3]]";
    ]
  in
  List.iter
    (fun j ->
      check_string (j.Protocol.id ^ " refused at lint") "lint" (stage_of (Scheduler.submit t j));
      check_int (j.Protocol.id ^ ": no fabric registered") 0 (Scheduler.stats t).Scheduler.fabrics)
    refused;
  (* the same fabric serves once the program is fixed *)
  let r = Scheduler.submit t (job ~fabric:seven ~placer:"center" "fixed" "[[5,1,3]]") in
  check_string "fixed job completes" "<completed>" (stage_of r);
  check_int "now registered" 1 (Scheduler.stats t).Scheduler.fabrics

(* The eviction sequence of an LRU-capped registry with lint refusals in
   between.  If a refusal on fabric 7 refreshed its recency, fabric 9
   would evict fabric 8 instead and the count would read 2. *)
let test_registry_evictions_with_refusals () =
  let t = Scheduler.create ~limits:(limits ~max_fabrics:2 ~response_cache:0 ()) () in
  let chain n = " " ^ String.make n 'T' ^ " \nJ" ^ String.make n '-' ^ "J" in
  let ok n i = job ~fabric:(chain n) ~placer:"center" (Printf.sprintf "ok%d-%d" n i) "[[5,1,3]]" in
  let refused n i =
    Protocol.make_job ~fabric:(chain n) ~placer:"center" ~id:(Printf.sprintf "no%d-%d" n i)
      (Protocol.Inline_qasm "QUBIT a\nH ghost\n")
  in
  let expect label stage j = check_string label stage (stage_of (Scheduler.submit t j)) in
  expect "7 maps" "<completed>" (ok 7 0);
  expect "8 maps" "<completed>" (ok 8 1);
  expect "7 refused" "lint" (refused 7 2);
  expect "9 maps" "<completed>" (ok 9 3);
  expect "7 maps again" "<completed>" (ok 7 4);
  expect "8 refused" "lint" (refused 8 5);
  expect "9 maps again" "<completed>" (ok 9 6);
  expect "8 maps again" "<completed>" (ok 8 7);
  let s = Scheduler.stats t in
  check_int "registry capped" 2 s.Scheduler.fabrics;
  check_int "evictions" 3 s.Scheduler.fabric_evictions

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "job round trip" `Quick test_job_round_trip;
          Alcotest.test_case "job wire defaults" `Quick test_job_defaults;
          Alcotest.test_case "job decode errors" `Quick test_job_decode_errors;
          Alcotest.test_case "response round trip" `Quick test_response_round_trip;
          Alcotest.test_case "exit-code tiers" `Quick test_exit_code_tiers;
          Alcotest.test_case "json parser edges" `Quick test_json_parse_edges;
        ] );
      ( "admission",
        [
          Alcotest.test_case "unknown placer" `Quick test_reject_unknown_placer;
          Alcotest.test_case "lint gate" `Quick test_reject_lint;
          Alcotest.test_case "budget ceiling" `Quick test_reject_budget;
          Alcotest.test_case "quote ceiling" `Quick test_reject_quote;
          Alcotest.test_case "queue full" `Quick test_reject_queue;
          Alcotest.test_case "malformed request line" `Quick test_handle_line_malformed;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "batch = sequential at any width" `Quick
            test_batch_matches_sequential_at_any_width;
          Alcotest.test_case "warm cache invisible and cheaper" `Quick
            test_warm_cache_is_invisible_and_cheaper;
          Alcotest.test_case "service = independent mapper" `Quick
            test_service_matches_independent_mapper;
          Alcotest.test_case "stats and fabric registry" `Quick test_stats_and_fabric_registry;
          Alcotest.test_case "lint refusal does not register" `Quick
            test_lint_refusal_does_not_register;
          Alcotest.test_case "registry evictions with refusals" `Quick
            test_registry_evictions_with_refusals;
        ] );
    ]
