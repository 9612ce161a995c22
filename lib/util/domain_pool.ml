type t = {
  jobs : int;
  mutex : Mutex.t;
  has_work : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs

(* Worker loop: drain the shared queue, sleeping on [has_work] when empty.
   Tasks never raise — [map] wraps user work so a worker cannot die. *)
let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.has_work t.mutex
  done;
  if Queue.is_empty t.queue && t.closed then Mutex.unlock t.mutex
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    task ();
    worker_loop t
  end

let create ~jobs =
  if jobs < 1 then invalid_arg "Domain_pool.create: jobs must be at least 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
    }
  in
  (* the caller participates in [map], so jobs-way parallelism needs only
     jobs-1 worker domains; jobs = 1 spawns none and stays purely inline *)
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let sequential = create ~jobs:1

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  if jobs <= 1 then f sequential
  else begin
    let t = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
  end

let map t f arr =
  let n = Array.length arr in
  if t.jobs = 1 || n <= 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    (* completion state guarded by the pool mutex; the condition is signalled
       when the last task of THIS map finishes (concurrent maps each carry
       their own counter and condition) *)
    let remaining = ref n in
    let all_done = Condition.create () in
    let first_exn = ref None in
    let task i () =
      (try results.(i) <- Some (f arr.(i))
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock t.mutex;
         if !first_exn = None then first_exn := Some (e, bt);
         Mutex.unlock t.mutex);
      Mutex.lock t.mutex;
      decr remaining;
      if !remaining = 0 then Condition.broadcast all_done;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      Queue.push (task i) t.queue
    done;
    Condition.broadcast t.has_work;
    (* the caller helps drain the queue instead of blocking; it may execute
       tasks of a concurrently running map, which is harmless *)
    while !remaining > 0 do
      match Queue.take_opt t.queue with
      | Some task ->
          Mutex.unlock t.mutex;
          task ();
          Mutex.lock t.mutex
      | None -> Condition.wait all_done t.mutex
    done;
    Mutex.unlock t.mutex;
    match !first_exn with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map (function Some v -> v | None -> assert false) results
  end

let map_seeded ~jobs ~seed f arr =
  with_pool ~jobs (fun pool ->
      (* index array rather than [map pool g arr] so [f] sees the task index
         even when a future change reorders internal scheduling *)
      let indices = Array.init (Array.length arr) Fun.id in
      map pool (fun i -> f ~index:i ~rng:(Rng.derive seed ~index:i) arr.(i)) indices)
