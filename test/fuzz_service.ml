(* Seeded mutational fuzzing of the service ingress: qspr-job request
   lines (well-formed, mutated, and spliced) and inline QASM programs of
   both dialects are pushed through the full decode + admission pipeline,
   which must answer every input with a well-formed response line — never
   an exception.

   The harness is deterministic (fixed xoshiro seed, no wall-clock input)
   and exit-coded: 0 when every iteration held the invariants, 1 with a
   reproducer on the first violation.  The service under test carries a
   zero quote ceiling, so admission runs every ingress tier (decode, lint,
   context construction, budget, quote) but never pays for a mapping —
   thousands of mutants stay cheap. *)

module Protocol = Service.Protocol
module Scheduler = Service.Scheduler
module Rng = Ion_util.Rng

let qasm_seeds =
  [
    "qubit a\nqubit b\ncnot a, b\n";
    "qubit q0\nqubit q1\nqubit q2\nh q0\ncnot q0, q1\ncnot q1, q2\n";
    "qubit a\nprepare a\nx a\nmeasure a\n";
    "qubit a\nqubit b\nqubit c\ncnot a, b\ncnot b, c\ncnot c, a\n";
    (* OpenQASM: the same inline field, the dialect read from the text *)
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
     gate bell a,b { h a; cx a,b; }\nbell q[0],q[1];\nmeasure q[0] -> c[0];\n";
    "qreg q[3];\ncreg m[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nbarrier q[0],q[2];\n\
     measure q[2] -> m[2];\n";
  ]

let job_seeds () =
  let open Protocol in
  [
    job_to_line (make_job ~id:"builtin" (Builtin "[[5,1,3]]"));
    job_to_line (make_job ~id:"full" ~seed:41 ~placer:"sa" ~m:3 ~max_evals:9 ~max_quote_us:55.5
                   ~deadline_ms:1000.0 ~fabric:"T-T" (Builtin "[[7,1,3]]"));
    job_to_line (make_job ~id:"qasm" (Inline_qasm (List.nth qasm_seeds 0)));
    job_to_line (make_job ~id:"deep" ~placer:"center" (Inline_qasm (List.nth qasm_seeds 1)));
    job_to_line (make_job ~id:"openqasm" (Inline_qasm (List.nth qasm_seeds 4)));
    {|{"schema":"qspr-job/1","id":"v1","circuit":{"builtin":"[[5,1,3]]"}}|};
    {|{"schema":"qspr-job/2","id":"v2","circuit":{"builtin":"[[5,1,3]]"},"deadline_ms":0.001}|};
  ]

(* tokens the mutator splices in: schema markers, structural JSON, field
   names (current and plausible-future), extreme numbers, escapes *)
let dictionary =
  [|
    "qspr-job/1"; "qspr-job/2"; "qspr-job/99"; "schema"; "circuit"; "builtin"; "qasm";
    "deadline_ms"; "max_evals"; "max_quote_us"; "placer"; "seed"; "id"; "m";
    "{"; "}"; "["; "]"; ":"; ","; "\""; "\\"; "\\u0000"; "\\ud83d"; "null"; "true"; "false";
    "-1"; "0"; "1e308"; "-1e308"; "1e-308"; "nan"; "inf"; "9007199254740993"; "0.001";
    "qubit"; "cnot"; "measure"; "prepare"; "%"; "\n"; "\t"; "\x00"; "\xff";
    "OPENQASM 2.0;"; "qreg"; "creg"; "gate"; ";"; "->"; "99999999999999999999";
  |]

let mutate rng line =
  let splice s pos ins del =
    let pos = Int.min pos (String.length s) in
    let del = Int.min del (String.length s - pos) in
    String.sub s 0 pos ^ ins ^ String.sub s (pos + del) (String.length s - pos - del)
  in
  let one s =
    if String.length s = 0 then Rng.pick rng dictionary
    else
      match Rng.int rng 6 with
      | 0 ->
          (* flip one byte *)
          let b = Bytes.of_string s in
          let i = Rng.int rng (Bytes.length b) in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8) land 0xff));
          Bytes.to_string b
      | 1 -> splice s (Rng.int rng (String.length s + 1)) (Rng.pick rng dictionary) 0
      | 2 -> splice s (Rng.int rng (String.length s + 1)) "" (1 + Rng.int rng 8)
      | 3 -> String.sub s 0 (Rng.int rng (String.length s + 1)) (* truncate *)
      | 4 ->
          (* duplicate a chunk *)
          let i = Rng.int rng (String.length s) in
          let n = Int.min (1 + Rng.int rng 16) (String.length s - i) in
          splice s i (String.sub s i n) 0
      | _ ->
          (* crossover with another seed input *)
          let other = Rng.pick rng (Array.of_list (job_seeds ())) in
          String.sub s 0 (Rng.int rng (String.length s + 1))
          ^ String.sub other (Rng.int rng (String.length other)) 0
          ^ other
  in
  let rec go s = function 0 -> s | n -> go (one s) (n - 1) in
  go line (1 + Rng.int rng 4)

let check_line t line =
  (* invariant 1: ingress is total — no exception for any byte string *)
  let out =
    try Ok (Scheduler.handle_line ~deterministic:true t line)
    with e -> Error (Printexc.to_string e)
  in
  match out with
  | Error exn -> Error (Printf.sprintf "ingress raised %s" exn)
  | Ok response_line -> (
      (* invariant 2: whatever ingress answers is a well-formed response *)
      match Protocol.response_of_line response_line with
      | Error e -> Error (Printf.sprintf "undecodable response %S: %s" response_line e)
      | Ok _ -> Ok ())

let () =
  let iterations = ref 3000 in
  let seed = ref 0x5eed in
  Arg.parse
    [
      ("--iterations", Arg.Set_int iterations, "fuzz iterations (default 3000)");
      ("--seed", Arg.Set_int seed, "root rng seed");
    ]
    (fun _ -> ())
    "fuzz_service [--iterations N] [--seed S]";
  let rng = Rng.create !seed in
  (* zero quote ceiling: every admitted job refuses at the quote tier, so
     no iteration pays for an actual mapping *)
  let t =
    Scheduler.create
      ~limits:{ Scheduler.default_limits with Scheduler.max_quote_us = Some 0.0 }
      ()
  in
  let seeds = Array.of_list (job_seeds ()) in
  let failures = ref 0 in
  for i = 0 to !iterations - 1 do
    let line =
      match i mod 10 with
      | 0 -> Rng.pick rng seeds (* unmutated: the happy path stays covered *)
      | 1 ->
          (* fresh job wrapping mutated inline QASM: the decoder accepts it,
             so the QASM parser and lint registry absorb the mutation *)
          Protocol.job_to_line
            (Protocol.make_job
               ~id:(Printf.sprintf "fz%d" i)
               (Protocol.Inline_qasm (mutate rng (Rng.pick rng (Array.of_list qasm_seeds)))))
      | _ -> mutate rng (Rng.pick rng seeds)
    in
    match check_line t line with
    | Ok () -> ()
    | Error why ->
        incr failures;
        Printf.eprintf "FUZZ FAILURE at iteration %d (seed %d):\n  input: %S\n  %s\n" i !seed
          line why
  done;
  (* mutated response lines: the result decoder must be total too *)
  let resp_seeds =
    [|
      {|{"schema":"qspr-result/3","id":"x","status":"ok","quote_us":1.0,"latency_us":1.0,"lower_bound_us":1.0,"bound_kind":"critical-path","placement_runs":1,"engine_evals":1,"degraded":false,"direction":"forward","shed":"none","certificate":{"digest":"0","valid":true},"attempts":[]}|};
      {|{"schema":"qspr-result/2","id":"y","status":"rejected","stage":"lint","reason":"r","findings":[]}|};
    |]
  in
  for i = 0 to (!iterations / 4) - 1 do
    let line = mutate rng (Rng.pick rng resp_seeds) in
    match Protocol.response_of_line line with
    | Ok _ | Error _ -> ()
    | exception e ->
        incr failures;
        Printf.eprintf "FUZZ FAILURE (response decoder) at iteration %d:\n  input: %S\n  raised %s\n"
          i line (Printexc.to_string e)
  done;
  let s = Scheduler.stats t in
  Printf.printf
    "fuzz_service: %d job-line + %d response-line iterations, seed %d: completed=%d rejected=%d \
     failed=%d, %d invariant violation(s)\n"
    !iterations (!iterations / 4) !seed s.Scheduler.completed s.Scheduler.rejected
    s.Scheduler.failed !failures;
  exit (if !failures = 0 then 0 else 1)
