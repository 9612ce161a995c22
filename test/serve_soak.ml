(* Soak test for the service runtime: a long-lived scheduler absorbs many
   batches of distinct requests across more distinct fabrics than the warm
   registry may hold and more distinct jobs than the response cache may
   hold, and the resident heap must stay flat — the LRU caps, not the
   workload, bound memory.

   Methodology: run [--rounds] batches, force a major collection after
   each, and sample [Gc.quick_stat] (whose [live_words] is exact after a
   major cycle).  The live size at the end must not exceed the live size
   at the warmup mark by more than a small factor; unbounded per-request
   growth (a leaking registry or cache) compounds across ~30 rounds and
   blows well past it.  Exit-coded for CI: 0 flat, 1 growing. *)

module Protocol = Service.Protocol
module Scheduler = Service.Scheduler

let fabric_pool =
  (* more distinct fabrics than [max_fabrics] below, so eviction is live;
     each is a junction-terminated channel run with traps hanging off it *)
  Array.init 12 (fun i ->
      let n = 2 + i in
      " " ^ String.make n 'T' ^ " \nJ" ^ String.make n '-' ^ "J")

let bell = "qubit a\nqubit b\ncnot a, b\nh a\ncnot a, b\n"

let () =
  let rounds = ref 36 in
  let per_round = ref 10 in
  Arg.parse
    [
      ("--rounds", Arg.Set_int rounds, "soak rounds (default 36)");
      ("--per-round", Arg.Set_int per_round, "jobs per round (default 10)");
    ]
    (fun _ -> ())
    "serve_soak [--rounds N] [--per-round N]";
  let limits =
    {
      Scheduler.default_limits with
      Scheduler.max_fabrics = 4;
      response_cache = 32;
      max_pending = !per_round * 2;
    }
  in
  let t = Scheduler.create ~limits () in
  let job round k =
    (* every job unique (id, seed), cycling fabrics: nothing is cache-hot,
       so a leak anywhere in the per-request path shows up every round *)
    Protocol.make_job
      ~id:(Printf.sprintf "soak-%d-%d" round k)
      ~seed:((round * 31) + k)
      ~placer:"center"
      ~fabric:fabric_pool.((round + k) mod Array.length fabric_pool)
      (Protocol.Inline_qasm bell)
  in
  let live () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.live_words
  in
  let warmup_rounds = Int.max 1 (!rounds / 3) in
  let baseline = ref 0 in
  for round = 0 to !rounds - 1 do
    let responses = Scheduler.run_batch t (List.init !per_round (job round)) in
    List.iter
      (fun r ->
        match r.Protocol.verdict with
        | Protocol.Completed _ | Protocol.Rejected _ -> ()
        | Protocol.Failed { reason; _ } -> failwith ("soak job failed: " ^ reason))
      responses;
    if round = warmup_rounds - 1 then baseline := live ()
  done;
  let final = live () in
  let s = Scheduler.stats t in
  Printf.printf
    "serve_soak: %d rounds x %d jobs: completed=%d rejected=%d shed=%d fabric_evictions=%d \
     response_evictions=%d distance_rows=%d; live heap %d -> %d words (%+.1f%%)\n"
    !rounds !per_round s.Scheduler.completed s.Scheduler.rejected s.Scheduler.shed
    s.Scheduler.fabric_evictions s.Scheduler.response_evictions s.Scheduler.distance_rows
    !baseline final
    (100.0 *. (float_of_int final /. float_of_int !baseline -. 1.0));
  (* flat means: within 20% of the warmed-up baseline plus 256k words of
     slack for allocator noise — a real per-round leak of even a few
     thousand words compounds past this over the post-warmup rounds *)
  let ceiling = (!baseline * 12 / 10) + 262_144 in
  if final > ceiling then begin
    Printf.eprintf "serve_soak: heap grew past the flatness ceiling (%d > %d words)\n" final
      ceiling;
    exit 1
  end;
  exit 0
