(* Generator determinism: the same seed gives byte-identical request lines,
   a different seed different ones, for every workload.  Seed 1 is the
   tuning seed; 2012 is held out for checking claims (README.md). *)

open Qbench

let lines (p : Gen.pass) =
  Array.map (fun (r : Gen.request) -> r.Gen.line) (Array.append p.Gen.warmups p.Gen.requests)

let () =
  let failures = ref 0 in
  let expect ok fmt =
    Printf.ksprintf
      (fun s ->
        if not ok then begin
          incr failures;
          prerr_endline ("FAIL " ^ s)
        end)
      fmt
  in
  List.iter
    (fun w ->
      let a = Gen.make w ~seed:1 and b = Gen.make w ~seed:1 and c = Gen.make w ~seed:2012 in
      expect (lines a = lines b) "%s: seed 1 twice gave different request lines" (Gen.name w);
      expect (Gen.digest a = Gen.digest b) "%s: seed 1 twice gave different digests" (Gen.name w);
      expect (lines a <> lines c) "%s: seeds 1 and 2012 gave the same request lines" (Gen.name w);
      expect (Gen.digest a <> Gen.digest c) "%s: seeds 1 and 2012 gave the same digest"
        (Gen.name w);
      Array.iteri
        (fun i (r : Gen.request) ->
          match r.Gen.repeat_of with
          | Some j ->
              expect (j < i && r.Gen.line = a.Gen.requests.(j).Gen.line) "%s: repeat %d"
                (Gen.name w) i
          | None -> ())
        a.Gen.requests)
    Gen.all;
  if !failures > 0 then exit 1
