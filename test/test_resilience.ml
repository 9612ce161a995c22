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

let overload_lines n = List.map Protocol.job_to_line (overload_jobs n)

(* [Scheduler.serve_batch] on an overloaded service (ladder at slot 2 of 8)
   with the emitted lines collected.  [kill_at] makes the [kill_at]-th
   emit raise, standing in for the process dying once that response is
   journaled; the exception escapes and no result is returned. *)
let serve ?(jobs = 1) ?journal ?kill_at lines =
  let t = Scheduler.create ~limits:(limits ~jobs ~max_pending:8 ~shed_start:2 ()) () in
  let out = ref [] and emitted = ref 0 in
  let emit line =
    incr emitted;
    if Some !emitted = kill_at then failwith "simulated kill";
    out := line :: !out
  in
  let result = Scheduler.serve_batch ~deterministic:true ?journal ~emit t lines in
  (result, List.rev !out)

let check_lines what expected actual =
  check_int (what ^ ": line count") (List.length expected) (List.length actual);
  List.iteri
    (fun i (a, b) -> check_string (Printf.sprintf "%s: line %d bit-identical" what i) a b)
    (List.combine expected actual)

(* serve [lines] journaling to [path] and die as the [kill_at]-th response
   is emitted, leaving the torn tail of a dying write, which must not
   poison the replay *)
let interrupt ?jobs ~kill_at path lines =
  (match serve ?jobs ~journal:path ~kill_at lines with
  | _ -> Alcotest.fail "the simulated kill should have escaped serve_batch"
  | exception Failure _ -> ());
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "qspr-journal/1 00c0ffee {\"schema\":\"qspr-re";
  close_out oc

let test_journal_replay_bit_identity () =
  (* overloaded batch so the replayed prefix spans full service, shed rungs
     and a queue refusal — the resumed run must reconstruct the slot *)
  let lines = overload_lines 10 in
  let code, uninterrupted = serve lines in
  check_bool "uninterrupted exit code: rejections present" true (code = Ok 2);
  let path = journal_path "qspr_test_journal.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  (* phase 1: serve the batch, journaling every response, and die as the
     7th is emitted *)
  let kill_after = 7 in
  interrupt ~kill_at:kill_after path lines;
  let replayed = Journal.replay path in
  check_int "journal holds the pre-kill prefix" kill_after (List.length replayed);
  List.iteri
    (fun i (e : Journal.entry) ->
      check_bool (Printf.sprintf "replay key %d matches input" i) true
        (Int64.equal e.Journal.key (Journal.key (List.nth lines i))))
    replayed;
  (* phase 2: resume — replay the journaled prefix verbatim, reconstruct
     the ladder slot, map only the remainder *)
  let code', resumed = serve ~journal:path lines in
  check_bool "resumed exit code" true (code' = code);
  check_lines "resumed" uninterrupted resumed;
  Sys.remove path

let malformed = [ "{\"schema\":\"qspr-job/1\""; "not json at all" ]

let test_journal_torn_resume_at_widths () =
  (* a malformed line in the batch is journaled under its raw-line key *)
  let lines = List.concat_map (fun l -> [ l; List.nth malformed 1 ]) (overload_lines 5) in
  List.iter
    (fun jobs ->
      let _, uninterrupted = serve ~jobs lines in
      List.iter
        (fun kill_at ->
          let path = Filename.temp_file "qspr_torn" ".jnl" in
          interrupt ~jobs ~kill_at path lines;
          let _, resumed = serve ~jobs ~journal:path lines in
          check_lines (Printf.sprintf "jobs %d, killed at %d" jobs kill_at) uninterrupted resumed;
          Sys.remove path)
        [ 1; 4; 9 ])
    [ 1; 2 ]

(* A resume cuts the journal back to its last complete record and that
   record's newline before appending.  Otherwise its first fresh record is
   glued onto the torn line, that record and every later one stop
   replaying, and a second interruption re-maps them all.  Both tails: a
   torn partial record, and a complete record that lost only its final
   newline (which must not replay either). *)
let test_journal_resume_cuts_torn_tail () =
  let lines = overload_lines 10 in
  let _, uninterrupted = serve lines in
  let k = 3 and kill_at = 7 in
  let kill path ~kill_at =
    match serve ~journal:path ~kill_at lines with
    | _ -> Alcotest.fail "the simulated kill should have escaped serve_batch"
    | exception Failure _ -> ()
  in
  List.iter
    (fun (what, cut) ->
      let path = Filename.temp_file "qspr_tail" ".jnl" in
      cut path;
      check_int (what ^ ": replayable prefix") k (List.length (Journal.replay path));
      kill path ~kill_at;
      let replayed = Journal.replay path in
      check_int (what ^ ": every record the resume wrote replays") kill_at (List.length replayed);
      List.iteri
        (fun i (e : Journal.entry) ->
          check_bool (Printf.sprintf "%s: replay key %d matches input" what i) true
            (Int64.equal e.Journal.key (Journal.key (List.nth lines i))))
        replayed;
      let _, resumed = serve ~journal:path lines in
      check_lines (what ^ ": second resume") uninterrupted resumed;
      Sys.remove path)
    [
      ("torn tail", fun path -> interrupt ~kill_at:k path lines);
      ( "record without its newline",
        fun path ->
          kill path ~kill_at:(k + 1);
          let text = In_channel.with_open_bin path In_channel.input_all in
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (String.sub text 0 (String.length text - 1))) );
    ]

let test_journal_mismatch_refused () =
  let lines = overload_lines 4 in
  let path = Filename.temp_file "qspr_mismatch" ".jnl" in
  ignore (serve ~journal:path lines);
  let refused what lines =
    match serve ~journal:path lines with
    | Error _, [] -> ()
    | Error _, _ -> Alcotest.failf "%s: refused, but emitted lines first" what
    | Ok _, _ -> Alcotest.failf "%s: a mismatched journal was resumed" what
  in
  refused "different batch" (List.rev lines);
  refused "shorter batch" (List.filteri (fun i _ -> i < 2) lines);
  (* a prefix-consistent journal still resumes *)
  (match serve ~journal:path (lines @ overload_lines 1) with
  | Ok _, out -> check_int "extended batch resumes" 5 (List.length out)
  | Error e, _ -> Alcotest.failf "extended batch: %s" e);
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

let test_malformed_lines_keep_order_and_slots () =
  let clean = overload_lines 10 in
  (* after every even job a malformed line and a blank one, which is skipped *)
  let with_malformed f =
    List.concat (List.mapi (fun i x -> if i mod 2 = 0 then x :: f i else [ x ]) clean)
  in
  let mixed = with_malformed (fun i -> [ List.nth malformed (i / 2 mod 2); "  " ]) in
  let _, clean_out = serve clean in
  let _, mixed_out = serve mixed in
  let decoded =
    List.map
      (fun line ->
        match Protocol.response_of_line line with
        | Ok r -> r
        | Error e -> Alcotest.failf "response line must decode: %s" e)
      mixed_out
  in
  let ids = List.mapi (fun i _ -> Printf.sprintf "j%d" i) clean in
  let expected_ids = List.concat (List.mapi (fun i id -> if i mod 2 = 0 then [ id; "?" ] else [ id ]) ids) in
  check_int "one response per non-blank line" (List.length expected_ids) (List.length decoded);
  List.iteri
    (fun i (id, (r : Protocol.response)) ->
      check_string (Printf.sprintf "input order %d" i) id r.Protocol.job_id;
      if id = "?" then check_string (Printf.sprintf "line %d stage" i) "request" (stage_of r))
    (List.combine expected_ids decoded);
  (* malformed lines consume no ladder slot: the jobs shed exactly as they
     do without them *)
  check_lines "jobs among malformed lines" clean_out
    (List.filteri (fun i _ -> List.nth expected_ids i <> "?") mixed_out)

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
          Alcotest.test_case "torn journal resumes at jobs 1 and 2" `Quick
            test_journal_torn_resume_at_widths;
          Alcotest.test_case "mismatched journal refused" `Quick test_journal_mismatch_refused;
          Alcotest.test_case "resume cuts a torn tail" `Quick test_journal_resume_cuts_torn_tail;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "input order preserved" `Quick test_streaming_preserves_input_order;
          Alcotest.test_case "malformed lines keep order and slots" `Quick
            test_malformed_lines_keep_order_and_slots;
        ] );
    ]
