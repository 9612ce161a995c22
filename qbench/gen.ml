module Protocol = Service.Protocol
module Rng = Ion_util.Rng

type workload = Table1_mvfb | Serve_ingress | Portfolio_anneal

let all = [ Table1_mvfb; Serve_ingress; Portfolio_anneal ]

let name = function
  | Table1_mvfb -> "table1-mvfb"
  | Serve_ingress -> "serve-ingress"
  | Portfolio_anneal -> "portfolio-anneal"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) all

let why = function
  | Table1_mvfb ->
      "the paper's Table-1 run: MVFB m=25 on QUALE 45x85, so placement search, engine and \
       router do almost all the work"
  | Serve_ingress ->
      "daemon path: distinct inline-QASM center jobs on four ASCII fabrics, so parse, lint, \
       quote and certify dominate"
  | Portfolio_anneal ->
      "the default portfolio placer with 200k delta-SA moves, the only workload running \
       Estimator.Delta"

type kind = Warmup | Builtin | Random | Repeat | Lint_bad | Quote_bad

type request = {
  line : string;
  kind : kind;
  expect_status : string;
  expect_stage : string option;
  repeat_of : int option;
}

type pass = { warmups : request array; requests : request array; fabrics : int }

let sa_moves = function Portfolio_anneal -> 200_000 | Table1_mvfb | Serve_ingress -> 20_000

let ok kind job =
  {
    line = Protocol.job_to_line job;
    kind;
    expect_status = "ok";
    expect_stage = None;
    repeat_of = None;
  }

let refused kind stage job =
  { (ok kind job) with expect_status = "rejected"; expect_stage = Some stage }

let warmup ~index fabric =
  ok Warmup
    (Protocol.make_job ?fabric ~placer:"center" ~seed:index
       ~id:(Printf.sprintf "warmup-%d" index)
       (Protocol.Builtin "[[5,1,3]]"))

(* per-job seeds: the [i]-th independent stream of the workload seed *)
let job_seed ~seed i = Rng.int (Rng.derive seed ~index:i) (1 lsl 30)

(* ------------------------------------------------ Table-1 batch workloads *)

let table1 w ~seed ~placer ~m =
  let requests =
    List.mapi
      (fun i (circuit, _) ->
        ok Builtin
          (Protocol.make_job ~placer ~m ~seed:(job_seed ~seed i)
             ~id:(Printf.sprintf "%s-%d-%d" (name w) seed i)
             (Protocol.Builtin circuit)))
      (Circuits.Qecc.all ())
  in
  { warmups = [| warmup ~index:0 None |]; requests = Array.of_list requests; fabrics = 1 }

(* ----------------------------------------------------------- serve-ingress *)

(* The four fabrics, all sent as ASCII: the paper's grid, two smaller
   grids and a junction-free linear trap chain.  Each holds 19 qubits. *)
let ingress_fabrics () =
  List.map
    (fun l -> Fabric.Layout.to_ascii l)
    [
      Fabric.Layout.quale_45x85 ();
      Fabric.Layout.make_grid ~width:45 ~height:27 ~pitch_x:8 ~pitch_y:6 ~margin:2
        ~traps_per_channel:1 ();
      Fabric.Layout.make_grid ~width:29 ~height:21 ~pitch_x:6 ~pitch_y:5 ~margin:2
        ~traps_per_channel:1 ();
      Fabric.Layout.linear ~traps:40 ();
    ]
  |> Array.of_list

(* Pass composition: 200 requests, of which 160 distinct random programs,
   20 exact repeats, the six Table-1 builtins, 7 lint refusals and 7 quote
   refusals.  The first ten are random so every repeat has an original. *)
let n_random = 160
let n_repeat = 20
let n_lint = 7
let n_quote = 7
let n_head = 10

type shape = { qubits : int; gates : int; fabric : int }

(* The random programs are stratified per fabric: each fabric gets the same
   number of programs, with gate counts jittered evenly over 40..440 and
   qubit counts spread evenly over 6..19, paired at random.  Every seed
   therefore asks for the same amount of work, in different programs. *)
let stratified rng ~fabrics =
  let m = n_random / fabrics in
  let shapes =
    Array.concat
      (List.init fabrics (fun fabric ->
           let g = Rng.permutation rng m and q = Rng.permutation rng m in
           Array.init m (fun r ->
               let u = (float_of_int g.(r) +. Rng.float rng 1.0) /. float_of_int m in
               { qubits = 6 + (q.(r) * 14 / m); gates = 40 + int_of_float (400. *. u); fabric })))
  in
  Rng.shuffle rng shapes;
  shapes

let any_shape rng ~fabrics =
  { qubits = 6 + Rng.int rng 14; gates = 40 + Rng.int rng 401; fabric = Rng.int rng fabrics }

let program rng shape =
  Qasm.Printer.to_string
    (Circuits.Library.random_clifford rng ~num_qubits:shape.qubits ~gates:shape.gates)

(* severity-2 shapes from the lint corpus: a gate on an undeclared qubit,
   and a two-qubit gate naming one qubit twice *)
let corrupt k src =
  if k mod 2 = 0 then src ^ "C-X q0,ghost\n" else src ^ "C-Z q1,q1\n"

let serve_ingress ~seed =
  let rng = Rng.create seed in
  let fabrics = ingress_fabrics () in
  let nf = Array.length fabrics in
  let shapes = stratified rng ~fabrics:nf in
  let builtins = Array.of_list (List.map fst (Circuits.Qecc.all ())) in
  (* slot kinds: the head is random, the tail a shuffled mix *)
  let tail =
    Array.concat
      [
        Array.make (n_random - n_head) Random;
        Array.make n_repeat Repeat;
        Array.make (Array.length builtins) Builtin;
        Array.make n_lint Lint_bad;
        Array.make n_quote Quote_bad;
      ]
  in
  Rng.shuffle rng tail;
  let kinds = Array.append (Array.make n_head Random) tail in
  let taken = ref 0 and builtin = ref 0 in
  let randoms = ref [] in
  let requests = Array.make (Array.length kinds) (warmup ~index:0 None) in
  Array.iteri
    (fun i kind ->
      let id = Printf.sprintf "serve-ingress-%d-%d" seed i in
      let seed = job_seed ~seed i in
      let inline shape ?max_quote_us src =
        Protocol.make_job ~fabric:fabrics.(shape.fabric) ~placer:"center" ~seed ?max_quote_us ~id
          (Protocol.Inline_qasm src)
      in
      requests.(i) <-
        (match kind with
        | Random ->
            let s = shapes.(!taken) in
            incr taken;
            randoms := i :: !randoms;
            ok Random (inline s (program rng s))
        | Repeat ->
            let earlier = Array.of_list !randoms in
            let j = earlier.(Rng.int rng (Array.length earlier)) in
            { (requests.(j)) with kind = Repeat; repeat_of = Some j }
        | Builtin ->
            let name = builtins.(!builtin) in
            incr builtin;
            ok Builtin (Protocol.make_job ~placer:"center" ~seed ~id (Protocol.Builtin name))
        | Lint_bad ->
            let s = any_shape rng ~fabrics:nf in
            refused Lint_bad "lint" (inline s (corrupt i (program rng s)))
        | Quote_bad ->
            let s = any_shape rng ~fabrics:nf in
            refused Quote_bad "quote" (inline s ~max_quote_us:1.0 (program rng s))
        | Warmup -> assert false))
    kinds;
  {
    warmups = Array.mapi (fun i f -> warmup ~index:i (Some f)) fabrics;
    requests;
    fabrics = nf;
  }

let make w ~seed =
  match w with
  | Table1_mvfb -> table1 w ~seed ~placer:"mvfb" ~m:25
  | Portfolio_anneal -> table1 w ~seed ~placer:"portfolio" ~m:4
  | Serve_ingress -> serve_ingress ~seed

let digest p =
  let b = Buffer.create 4096 in
  Array.iter
    (fun r ->
      Buffer.add_string b r.line;
      Buffer.add_char b '\n')
    (Array.append p.warmups p.requests);
  Digest.to_hex (Digest.string (Buffer.contents b))
