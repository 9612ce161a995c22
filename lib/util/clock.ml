(* A high-water mark over the raw wall clock.  Atomic CAS keeps the mark
   consistent under concurrent readers on different domains; floats are
   boxed in Atomic.t but this is polled at checkpoint granularity (hundreds
   of inner-loop steps), not per event. *)
let monotonize raw =
  let mark = Atomic.make neg_infinity in
  fun () ->
    let t = raw () in
    let rec advance () =
      let m = Atomic.get mark in
      if t <= m then m
      else if Atomic.compare_and_set mark m t then t
      else advance ()
    in
    advance ()

let now_s = monotonize Unix.gettimeofday
let now_ms () = now_s () *. 1000.

type deadline = { at_ms : float; budget_ms : float }

let after_ms budget_ms = { at_ms = now_ms () +. budget_ms; budget_ms }
let budget_ms d = d.budget_ms

(* a non-positive budget is expired by definition: the high-water clock can
   return the arming instant's exact reading again, and [>] alone would
   let a zero-budget deadline slip through its first checkpoint *)
let expired d = d.budget_ms <= 0.0 || now_ms () > d.at_ms

exception Expired of { budget_ms : float }

let check d = if expired d then raise (Expired { budget_ms = d.budget_ms })
let guard = function None -> None | Some d -> Some (fun () -> check d)
