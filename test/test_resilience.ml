(* Overload-resilience tests: the degradation ladder (every rung fires,
   bit-identical at any jobs width), request deadlines (refused on
   arrival, typed mid-search abort), the response cache, the warm-state
   registry's LRU cap, and crash-only journal replay (a simulated
   mid-batch kill resumes to byte-identical output). *)

module Protocol = Service.Protocol
module Scheduler = Service.Scheduler
module Journal = Service.Journal
module Clock = Ion_util.Clock
module Lru = Ion_util.Lru

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let job ?fabric ?deadline_ms ?(seed = 7) ?(placer = "mvfb") ?(m = 2) id circuit =
  Protocol.make_job ?fabric ?deadline_ms ~seed ~placer ~m ~id (Protocol.Builtin circuit)

let limits ?(jobs = 1) ?(max_pending = 64) ?shed_start ?(max_fabrics = 8)
    ?(response_cache = 256) ?response_ttl_s () =
  {
    Scheduler.jobs;
    max_pending;
    max_quote_us = None;
    max_evals = None;
    shed_start;
    max_fabrics;
    response_cache;
    response_ttl_s;
  }

let det_line r = Protocol.response_to_line ~deterministic:true r

let stage_of (r : Protocol.response) =
  match r.Protocol.verdict with
  | Protocol.Rejected { stage; _ } -> stage
  | Protocol.Completed _ -> "<completed>"
  | Protocol.Failed _ -> "<failed>"

let shed_of (r : Protocol.response) =
  match r.Protocol.verdict with Protocol.Completed c -> c.shed | _ -> "<not-completed>"

(* --------------------------------------------------------------- ladder *)

let test_rung_policy () =
  let l = limits ~max_pending:8 ~shed_start:2 () in
  let expect slot rung = check_bool (Printf.sprintf "slot %d" slot) true (Scheduler.rung_of l ~slot = rung) in
  expect 0 Scheduler.Full;
  expect 1 Scheduler.Full;
  expect 2 Scheduler.Prescreen;
  expect 3 Scheduler.Prescreen;
  expect 4 Scheduler.Budgeted;
  expect 5 Scheduler.Budgeted;
  expect 6 Scheduler.Quote_only;
  expect 7 Scheduler.Quote_only;
  expect 8 Scheduler.Refused;
  expect 999 Scheduler.Refused;
  (* defaults: ladder starts at half of max_pending *)
  let d = limits ~max_pending:64 () in
  check_bool "slot 31 full by default" true (Scheduler.rung_of d ~slot:31 = Scheduler.Full);
  check_bool "slot 32 sheds by default" true (Scheduler.rung_of d ~slot:32 <> Scheduler.Full);
  (* a 1-deep queue still serves its one job at full service *)
  let one = limits ~max_pending:1 () in
  check_bool "slot 0 full at max_pending=1" true (Scheduler.rung_of one ~slot:0 = Scheduler.Full);
  check_bool "slot 1 refused at max_pending=1" true
    (Scheduler.rung_of one ~slot:1 = Scheduler.Refused)

let overload_jobs n = List.init n (fun i -> job ~seed:(7 + i) (Printf.sprintf "j%d" i) "[[5,1,3]]")

let test_every_rung_fires () =
  let t = Scheduler.create ~limits:(limits ~max_pending:8 ~shed_start:2 ()) () in
  let rs = Scheduler.run_batch t (overload_jobs 10) in
  let r i = List.nth rs i in
  check_string "slot 0 full" "none" (shed_of (r 0));
  check_string "slot 1 full" "none" (shed_of (r 1));
  check_string "slot 2 prescreened" "prescreen" (shed_of (r 2));
  check_string "slot 3 prescreened" "prescreen" (shed_of (r 3));
  check_string "slot 4 budgeted" "budgeted" (shed_of (r 4));
  check_string "slot 5 budgeted" "budgeted" (shed_of (r 5));
  check_string "slot 6 quote-only" "shed" (stage_of (r 6));
  check_string "slot 7 quote-only" "shed" (stage_of (r 7));
  check_string "slot 8 refused" "queue" (stage_of (r 8));
  check_string "slot 9 refused" "queue" (stage_of (r 9));
  (* shed quotes still carry the estimate the client paid for *)
  (match (r 6).Protocol.verdict with
  | Protocol.Rejected { quote_us = Some q; _ } -> check_bool "quote attached" true (q > 0.0)
  | _ -> Alcotest.fail "expected a shed rejection carrying the quote");
  (* executed rungs audit the shed decision and mark the result degraded *)
  (match (r 2).Protocol.verdict with
  | Protocol.Completed c ->
      check_bool "degraded" true c.degraded;
      (match c.attempts with
      | a :: _ -> check_string "audit head" "shed:prescreen" a.Protocol.stage
      | [] -> Alcotest.fail "expected attempts")
  | _ -> Alcotest.fail "expected completion on the prescreen rung");
  let s = Scheduler.stats t in
  check_int "shed counter: 2 prescreen + 2 budgeted + 2 quotes" 6 s.Scheduler.shed;
  check_int "completions" 6 s.Scheduler.completed;
  check_int "rejections: 2 shed + 2 queue" 4 s.Scheduler.rejected

let test_overload_deterministic_at_any_width () =
  let run jobs_width =
    let t = Scheduler.create ~limits:(limits ~jobs:jobs_width ~max_pending:8 ~shed_start:2 ()) () in
    List.map det_line (Scheduler.run_batch t (overload_jobs 10))
  in
  List.iteri
    (fun i (a, b) -> check_string (Printf.sprintf "jobs=1 vs jobs=4 under overload [%d]" i) a b)
    (List.combine (run 1) (run 4))

(* ------------------------------------------------------------ deadlines *)

let test_deadline_refused_on_arrival () =
  let t = Scheduler.create () in
  let r = Scheduler.submit t (job ~deadline_ms:0.0 "late" "[[5,1,3]]") in
  check_string "stage" "deadline" (stage_of r);
  (* a generous deadline changes nothing: same bytes as no deadline at all,
     minus the deadline_ms field in the request *)
  let r2 = Scheduler.submit t (job ~deadline_ms:1e9 "fine" "[[5,1,3]]") in
  check_string "generous deadline completes" "none" (shed_of r2)

let test_deadline_aborts_search_typed () =
  (* arm an already-expired deadline directly in the mapper config: the
     first cooperative checkpoint must yield the typed error, not a hang
     or a raw exception *)
  let program =
    match List.assoc_opt "[[5,1,3]]" (Circuits.Qecc.all ()) with
    | Some p -> p
    | None -> Alcotest.fail "builtin [[5,1,3]] missing"
  in
  let config =
    Qspr.Config.(
      default |> with_seed 7 |> with_m 2 |> with_jobs 1
      |> with_budget
           { wall_s = None; max_evals = None; deadline = Some (Clock.after_ms 0.0) })
  in
  let ctx =
    match Qspr.Mapper.create ~fabric:(Fabric.Layout.quale_45x85 ()) ~config program with
    | Ok c -> c
    | Error e -> Alcotest.failf "Mapper.create: %s" e
  in
  List.iter
    (fun (name, run) ->
      match run ctx with
      | Error (Qspr.Mapper.Deadline_exceeded { budget_ms }) ->
          check_bool (name ^ " budget") true (budget_ms = 0.0)
      | Error e -> Alcotest.failf "%s: expected Deadline_exceeded, got %s" name (Qspr.Mapper.error_to_string e)
      | Ok _ -> Alcotest.failf "%s: expected Deadline_exceeded, got a solution" name)
    [
      ("mvfb", Qspr.Mapper.map Mvfb);
      ("mc", Qspr.Mapper.map Monte_carlo);
      ("sa", Qspr.Mapper.map Annealing);
      ("portfolio", Qspr.Mapper.map Portfolio);
      ("robust", Qspr.Mapper.map Robust);
    ];
  (* the wave mapper's Pathfinder checkpoint goes through the same guard *)
  match Qspr.Wave_mapper.map ctx with
  | Error (Qspr.Mapper.Deadline_exceeded _) -> ()
  | Error e -> Alcotest.failf "wave: expected Deadline_exceeded, got %s" (Qspr.Mapper.error_to_string e)
  | Ok _ -> Alcotest.fail "wave: expected Deadline_exceeded, got a solution"

let test_clock_monotonizes () =
  let steps = ref [ 5.0; 3.0; 4.0; 10.0; 1.0 ] in
  let fake () =
    match !steps with
    | [] -> 11.0
    | s :: rest ->
        steps := rest;
        s
  in
  let clock = Clock.monotonize fake in
  let readings = List.init 5 (fun _ -> clock ()) in
  check_bool "never decreases" true
    (List.for_all2 ( <= ) readings (List.tl readings @ [ infinity ]));
  check_bool "tracks forward steps" true (List.nth readings 3 = 10.0)

(* ------------------------------------------------------- response cache *)

let test_response_cache_hit () =
  let t = Scheduler.create () in
  let j = job "same" "[[5,1,3]]" in
  let first = Scheduler.submit t j in
  let second = Scheduler.submit t j in
  check_bool "first computed" true (not first.Protocol.cached);
  check_bool "second served from cache" true second.Protocol.cached;
  check_string "byte-identical deterministic encodings" (det_line first) (det_line second);
  let s = Scheduler.stats t in
  check_int "one cache hit" 1 s.Scheduler.response_hits;
  check_int "both counted as completions" 2 s.Scheduler.completed;
  (* shed results answer for a load level, not the job: never cached *)
  let t2 = Scheduler.create ~limits:(limits ~max_pending:2 ~shed_start:0 ()) () in
  let shed1 = Scheduler.submit t2 j in
  let shed2 = Scheduler.submit t2 j in
  check_string "shed result" "prescreen" (shed_of shed1);
  check_bool "shed result not replayed" true (not shed2.Protocol.cached)

let test_response_cache_ttl_and_lru () =
  let now = ref 0.0 in
  let c = Lru.create ~ttl_s:10.0 ~now:(fun () -> !now) ~cap:2 () in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  check_bool "a live" true (Lru.find c "a" = Some 1);
  Lru.put c "c" 3;
  (* "b" was least-recent (the find refreshed "a") *)
  check_bool "b evicted" true (Lru.find c "b" = None);
  check_bool "a survived" true (Lru.find c "a" = Some 1);
  check_int "one eviction" 1 (Lru.evictions c);
  now := 11.0;
  check_bool "a expired" true (Lru.find c "a" = None);
  check_int "one expiry" 1 (Lru.expirations c);
  let off = Lru.create ~cap:0 () in
  Lru.put off "x" 1;
  check_bool "cap 0 disables" true (Lru.find off "x" = None && Lru.length off = 0)

(* ------------------------------------------------- fabric registry cap *)

let test_fabric_registry_eviction () =
  let t = Scheduler.create ~limits:(limits ~max_fabrics:2 ~response_cache:0 ()) () in
  (* [n] traps hanging off one junction-terminated channel run *)
  let chain n = " " ^ String.make n 'T' ^ " \nJ" ^ String.make n '-' ^ "J" in
  let on fabric i = job ~fabric ~placer:"center" (Printf.sprintf "f%d" i) "[[5,1,3]]" in
  ignore (Scheduler.submit t (on (chain 7) 0));
  ignore (Scheduler.submit t (on (chain 8) 1));
  ignore (Scheduler.submit t (on (chain 9) 2));
  let s = Scheduler.stats t in
  check_int "registry capped at 2" 2 s.Scheduler.fabrics;
  check_int "one eviction" 1 s.Scheduler.fabric_evictions;
  (* the eviction counter is surfaced on responses too *)
  let r = Scheduler.submit t (on (chain 7) 3) in
  match r.Protocol.cache with
  | Some c -> check_bool "evictions visible in the response" true (c.Protocol.fabric_evictions >= 1)
  | None -> Alcotest.fail "expected cache counters"

(* -------------------------------------------------------------- journal *)

let journal_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_journal_replay_bit_identity () =
  (* overloaded batch so the replayed prefix spans full service, shed rungs
     and a queue refusal — the resumed run must reconstruct the slot *)
  let jobs = overload_jobs 10 in
  let mk () = Scheduler.create ~limits:(limits ~max_pending:8 ~shed_start:2 ()) () in
  let uninterrupted = List.map det_line (Scheduler.run_batch (mk ()) jobs) in
  let path = journal_path "qspr_test_journal.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  (* phase 1: serve the batch, journaling every emitted response, and die
     (exception out of the result callback) after the 7th *)
  let kill_after = 7 in
  (let jnl = Journal.open_append path in
   let emitted = ref 0 in
   match
     Scheduler.run_batch
       ~on_result:(fun j r ->
         Journal.append jnl ~key:(Journal.key (Protocol.job_to_line j))
           ~response_line:(det_line r);
         incr emitted;
         if !emitted = kill_after then failwith "simulated kill")
       (mk ()) jobs
   with
   | _ -> Alcotest.fail "the simulated kill should have escaped run_batch"
   | exception Failure _ -> Journal.close jnl);
  (* a torn tail from the dying write must not poison the replay *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "qspr-journal/1 00c0ffee {\"schema\":\"qspr-re";
  close_out oc;
  (* phase 2: resume — replay the journaled prefix verbatim, reconstruct
     the ladder slot, map only the remainder *)
  let replayed = Journal.replay path in
  check_int "journal holds the pre-kill prefix" kill_after (List.length replayed);
  List.iteri
    (fun i (e : Journal.entry) ->
      check_bool (Printf.sprintf "replay key %d matches input" i) true
        (Int64.equal e.Journal.key
           (Journal.key (Protocol.job_to_line (List.nth jobs i)))))
    replayed;
  let first_slot =
    List.length (List.filter (fun (e : Journal.entry) -> Journal.consumed_slot e.Journal.response) replayed)
  in
  let rest = List.filteri (fun i _ -> i >= kill_after) jobs in
  let resumed =
    List.map (fun (e : Journal.entry) -> e.Journal.response_line) replayed
    @ List.map det_line (Scheduler.run_batch ~first_slot (mk ()) rest)
  in
  List.iteri
    (fun i (a, b) -> check_string (Printf.sprintf "resumed line %d bit-identical" i) a b)
    (List.combine uninterrupted resumed);
  Sys.remove path

let test_journal_tolerates_missing_and_garbage () =
  check_bool "missing journal is empty" true (Journal.replay (journal_path "qspr_absent.jnl") = []);
  let path = journal_path "qspr_garbage.jnl" in
  let oc = open_out path in
  output_string oc "complete garbage\n";
  close_out oc;
  check_bool "garbage journal is empty" true (Journal.replay path = []);
  Sys.remove path

(* ------------------------------------------------------------ streaming *)

let test_streaming_preserves_input_order () =
  let t = Scheduler.create ~limits:(limits ~jobs:4 ~max_pending:8 ~shed_start:2 ()) () in
  let seen = ref [] in
  let rs =
    Scheduler.run_batch
      ~on_result:(fun j _ -> seen := j.Protocol.id :: !seen)
      t (overload_jobs 10)
  in
  check_int "all streamed" (List.length rs) (List.length !seen);
  List.iteri
    (fun i id -> check_string (Printf.sprintf "stream order %d" i) (Printf.sprintf "j%d" i) id)
    (List.rev !seen)

let () =
  Alcotest.run "resilience"
    [
      ( "ladder",
        [
          Alcotest.test_case "rung policy" `Quick test_rung_policy;
          Alcotest.test_case "every rung fires" `Quick test_every_rung_fires;
          Alcotest.test_case "overload deterministic at any width" `Quick
            test_overload_deterministic_at_any_width;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "refused on arrival" `Quick test_deadline_refused_on_arrival;
          Alcotest.test_case "typed mid-search abort" `Quick test_deadline_aborts_search_typed;
          Alcotest.test_case "clock monotonizes" `Quick test_clock_monotonizes;
        ] );
      ( "caches",
        [
          Alcotest.test_case "response cache hit" `Quick test_response_cache_hit;
          Alcotest.test_case "lru ttl and eviction" `Quick test_response_cache_ttl_and_lru;
          Alcotest.test_case "fabric registry eviction" `Quick test_fabric_registry_eviction;
        ] );
      ( "journal",
        [
          Alcotest.test_case "replay bit identity after kill" `Quick
            test_journal_replay_bit_identity;
          Alcotest.test_case "missing and garbage journals" `Quick
            test_journal_tolerates_missing_and_garbage;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "input order preserved" `Quick test_streaming_preserves_input_order;
        ] );
    ]
