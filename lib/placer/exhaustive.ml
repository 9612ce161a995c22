type outcome = {
  placement : int array;
  result : Simulator.Engine.score;
  evaluated : int;
  worst_latency : float;
}

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

let choose n k =
  if k > n then 0
  else begin
    (* C(n,k) via the multiplicative formula to limit overflow *)
    let acc = ref 1 in
    for i = 1 to k do
      acc := !acc * (n - k + i) / i
    done;
    !acc
  end

let search_space ~candidate_traps ~num_qubits =
  choose candidate_traps num_qubits * factorial num_qubits

(* enumerate injective assignments of [k] slots from [pool]; calls [f] with a
   scratch array that must not be retained *)
let iter_injections pool k f =
  let n = Array.length pool in
  let used = Array.make n false in
  let slot = Array.make k 0 in
  let rec go depth =
    if depth = k then f slot
    else
      for i = 0 to n - 1 do
        if not used.(i) then begin
          used.(i) <- true;
          slot.(depth) <- pool.(i);
          go (depth + 1);
          used.(i) <- false
        end
      done
  in
  if k > 0 then go 0 else f slot

(* searches past this many placements are refused, not run *)
let max_evaluations = 50_000

let search ?candidate_traps ~(evaluate : Search.evaluator) comp ~num_qubits =
  let candidate_traps = Option.value ~default:(num_qubits + 1) candidate_traps in
  let invalid msg = Error (Simulator.Engine.Invalid msg) in
  if candidate_traps < num_qubits then
    invalid "Exhaustive.search: fewer candidate traps than qubits"
  else begin
    let space = search_space ~candidate_traps ~num_qubits in
    if space > max_evaluations then
      invalid
        (Printf.sprintf "Exhaustive.search: %d placements exceed the cap of %d" space max_evaluations)
    else
      match Center.center_traps comp candidate_traps with
      | exception Invalid_argument msg -> invalid msg
      | traps ->
          let pool = Array.of_list traps in
          let best = ref None in
          let worst = ref neg_infinity in
          let evaluated = ref 0 in
          let error = ref None in
          (try
             iter_injections pool num_qubits (fun slot ->
                 if !error = None then begin
                   let placement = Array.copy slot in
                   match evaluate placement with
                   | Error e ->
                       error := Some e;
                       raise Exit
                   | Ok r ->
                       incr evaluated;
                       worst := Float.max !worst r.Simulator.Engine.latency;
                       let better =
                         match !best with
                         | None -> true
                         | Some (_, (prev : Simulator.Engine.score)) ->
                             r.Simulator.Engine.latency < prev.Simulator.Engine.latency
                       in
                       if better then best := Some (placement, r)
                 end)
           with Exit -> ());
          (match (!error, !best) with
          | Some e, _ -> Error e
          | None, None -> Error (Simulator.Engine.Invalid "Exhaustive.search: empty search space")
          | None, Some (placement, result) ->
              Ok { placement; result; evaluated = !evaluated; worst_latency = !worst })
  end
