module Json = Ion_util.Json

type circuit = Builtin of string | Inline_qasm of string

type job = {
  id : string;
  circuit : circuit;
  fabric : string option;
  seed : int;
  placer : string;
  m : int option;
  max_evals : int option;
  max_quote_us : float option;
  deadline_ms : float option;
}

let default_seed = 2012
let default_placer = "portfolio"

let make_job ?fabric ?(seed = default_seed) ?(placer = default_placer) ?m ?max_evals ?max_quote_us
    ?deadline_ms ~id circuit =
  { id; circuit; fabric; seed; placer; m; max_evals; max_quote_us; deadline_ms }

type cache_stats = {
  hits : int;
  misses : int;
  shared_hits : int;
  bound_builds : int;
  warm_paths : int;
  fabric_evictions : int;
      (** warm-state registry entries evicted over the service lifetime *)
}

type attempt = { stage : string; seed : int; outcome : (float, string) result }

type verdict =
  | Completed of {
      latency_us : float;
      quote_us : float;
      lower_bound_us : float;
          (** certified admissible lower bound for the mapped instance *)
      bound_kind : string;  (** {!Estimator.Bound.kind} wire encoding *)
      optimality_gap : float option;  (** (latency - bound) / bound, when bound > 0 *)
      placement_runs : int;
      engine_evals : int;
      degraded : bool;
      direction : string;
      shed : string;
          (** degradation-ladder rung the job ran at: ["none"] (full
              request), ["prescreen"] or ["budgeted"] *)
      certificate_digest : int64;
      certificate_valid : bool;
      attempts : attempt list;
    }
  | Rejected of {
      stage : string;
      reason : string;
      quote_us : float option;
      findings : Ion_util.Json.t list;
    }
  | Failed of { reason : string; quote_us : float option; attempts : attempt list }

type response = {
  job_id : string;
  verdict : verdict;
  cache : cache_stats option;
  cpu_s : float;
  cached : bool;  (** served verbatim from the response cache *)
}

(* ------------------------------------------------------------ decoding *)

(* Field accessors returning (value, string) result so decode errors name
   the offending field instead of raising. *)

let field_str name json =
  match Json.member name json with
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let opt_str name json =
  match Json.member name json with
  | None | Some Json.Null -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let opt_int name json =
  match Json.member name json with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)

let opt_float name json =
  match Json.member name json with
  | None | Some Json.Null -> Ok None
  | Some (Json.Float f) -> Ok (Some f)
  | Some (Json.Int i) -> Ok (Some (float_of_int i))
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)

let req_float name json =
  match opt_float name json with
  | Ok (Some f) -> Ok f
  | Ok None -> Error (Printf.sprintf "missing field %S" name)
  | Error _ as e -> e

let req_int name json =
  match opt_int name json with
  | Ok (Some i) -> Ok i
  | Ok None -> Error (Printf.sprintf "missing field %S" name)
  | Error _ as e -> e

let opt_bool name json =
  match Json.member name json with
  | None | Some Json.Null -> Ok None
  | Some (Json.Bool b) -> Ok (Some b)
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let ( let* ) = Result.bind

(* ----------------------------------------------------------------- job *)

let encode_circuit = function
  | Builtin name -> Json.Obj [ ("builtin", Json.String name) ]
  | Inline_qasm src -> Json.Obj [ ("qasm", Json.String src) ]

let decode_circuit json =
  match (Json.member "builtin" json, Json.member "qasm" json) with
  | Some (Json.String name), None -> Ok (Builtin name)
  | None, Some (Json.String src) -> Ok (Inline_qasm src)
  | Some _, Some _ -> Error "circuit: give \"builtin\" or \"qasm\", not both"
  | _ -> Error "circuit: expected an object with a \"builtin\" or \"qasm\" string"

let encode_job j =
  let opt name v f = match v with None -> [] | Some x -> [ (name, f x) ] in
  Json.Obj
    ([
       ("schema", Json.String "qspr-job/2");
       ("id", Json.String j.id);
       ("circuit", encode_circuit j.circuit);
     ]
    @ opt "fabric" j.fabric (fun s -> Json.String s)
    @ [ ("seed", Json.Int j.seed); ("placer", Json.String j.placer) ]
    @ opt "m" j.m (fun i -> Json.Int i)
    @ opt "max_evals" j.max_evals (fun i -> Json.Int i)
    @ opt "max_quote_us" j.max_quote_us (fun f -> Json.Float f)
    @ opt "deadline_ms" j.deadline_ms (fun f -> Json.Float f))

let decode_job json =
  (* /1 requests (no deadline_ms) remain valid /2 requests *)
  let* _ =
    match field_str "schema" json with
    | Error _ as e -> e
    | Ok ("qspr-job/1" | "qspr-job/2") as ok -> ok
    | Ok s -> Error (Printf.sprintf "expected schema qspr-job/2, got %s" s)
  in
  let* id = field_str "id" json in
  let* circuit =
    match Json.member "circuit" json with
    | Some c -> decode_circuit c
    | None -> Error "missing field \"circuit\""
  in
  let* fabric = opt_str "fabric" json in
  let* seed = opt_int "seed" json in
  let* placer = opt_str "placer" json in
  let* m = opt_int "m" json in
  let* max_evals = opt_int "max_evals" json in
  let* max_quote_us = opt_float "max_quote_us" json in
  let* deadline_ms = opt_float "deadline_ms" json in
  Ok
    {
      id;
      circuit;
      fabric;
      seed = Option.value ~default:default_seed seed;
      placer = Option.value ~default:default_placer placer;
      m;
      max_evals;
      max_quote_us;
      deadline_ms;
    }

let job_of_line line =
  match Json.parse line with Error e -> Error ("bad request JSON: " ^ e) | Ok j -> decode_job j

let job_to_line j = Json.to_string ~indent:false (encode_job j)

(* ------------------------------------------------------------ response *)

let status_of = function Completed _ -> "ok" | Rejected _ -> "rejected" | Failed _ -> "failed"

let encode_attempt a =
  Json.Obj
    ([ ("stage", Json.String a.stage); ("seed", Json.Int a.seed) ]
    @
    match a.outcome with
    | Ok latency -> [ ("ok", Json.Float latency) ]
    | Error e -> [ ("error", Json.String e) ])

let decode_attempt json =
  let* stage = field_str "stage" json in
  let* seed = req_int "seed" json in
  let* outcome =
    match (Json.member "ok" json, Json.member "error" json) with
    | Some _, None ->
        let* l = req_float "ok" json in
        Ok (Ok l)
    | None, Some (Json.String e) -> Ok (Error e)
    | _ -> Error "attempt: expected exactly one of \"ok\" or \"error\""
  in
  Ok { stage; seed; outcome }

let encode_cache c =
  Json.Obj
    [
      ("hits", Json.Int c.hits);
      ("misses", Json.Int c.misses);
      ("shared_hits", Json.Int c.shared_hits);
      ("bound_builds", Json.Int c.bound_builds);
      ("warm_paths", Json.Int c.warm_paths);
      ("fabric_evictions", Json.Int c.fabric_evictions);
    ]

let decode_cache json =
  let* hits = req_int "hits" json in
  let* misses = req_int "misses" json in
  let* shared_hits = req_int "shared_hits" json in
  let* bound_builds = req_int "bound_builds" json in
  let* warm_paths = req_int "warm_paths" json in
  let* fabric_evictions = opt_int "fabric_evictions" json in
  Ok
    {
      hits;
      misses;
      shared_hits;
      bound_builds;
      warm_paths;
      fabric_evictions = Option.value ~default:0 fabric_evictions;
    }

let digest_to_string d = Printf.sprintf "%016Lx" d

let digest_of_string s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some d -> Ok d
  | None -> Error (Printf.sprintf "bad certificate digest %S" s)

let encode_response ?(deterministic = false) r =
  let opt name v f = match v with None -> [] | Some x -> [ (name, f x) ] in
  let verdict_fields =
    match r.verdict with
    | Completed c ->
        [
          ("quote_us", Json.Float c.quote_us);
          ("latency_us", Json.Float c.latency_us);
          ("lower_bound_us", Json.Float c.lower_bound_us);
          ("bound_kind", Json.String c.bound_kind);
          ( "optimality_gap",
            match c.optimality_gap with Some g -> Json.Float g | None -> Json.Null );
          ("placement_runs", Json.Int c.placement_runs);
          ("engine_evals", Json.Int c.engine_evals);
          ("degraded", Json.Bool c.degraded);
          ("direction", Json.String c.direction);
          ("shed", Json.String c.shed);
          ( "certificate",
            Json.Obj
              [
                ("digest", Json.String (digest_to_string c.certificate_digest));
                ("valid", Json.Bool c.certificate_valid);
              ] );
          ("attempts", Json.List (List.map encode_attempt c.attempts));
        ]
    | Rejected rj ->
        [ ("stage", Json.String rj.stage); ("reason", Json.String rj.reason) ]
        @ opt "quote_us" rj.quote_us (fun f -> Json.Float f)
        @ [ ("findings", Json.List rj.findings) ]
    | Failed f ->
        [ ("reason", Json.String f.reason) ]
        @ opt "quote_us" f.quote_us (fun x -> Json.Float x)
        @ [ ("attempts", Json.List (List.map encode_attempt f.attempts)) ]
  in
  let observability =
    if deterministic then []
    else
      (match r.cache with None -> [] | Some c -> [ ("cache", encode_cache c) ])
      @ [ ("cpu_s", Json.Float r.cpu_s) ]
      @ (if r.cached then [ ("cached", Json.Bool true) ] else [])
  in
  Json.Obj
    ([
       ("schema", Json.String "qspr-result/3");
       ("id", Json.String r.job_id);
       ("status", Json.String (status_of r.verdict));
     ]
    @ verdict_fields @ observability)

let decode_list name f json =
  match Json.member name json with
  | Some (Json.List items) ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* v = f item in
          Ok (v :: acc))
        (Ok []) items
      |> Result.map List.rev
  | Some _ -> Error (Printf.sprintf "field %S must be a list" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let decode_response json =
  (* accept /1 (no bound fields, defaulted below) and /2 *)
  let* _ =
    match field_str "schema" json with
    | Error _ as e -> e
    | Ok ("qspr-result/1" | "qspr-result/2" | "qspr-result/3") as ok -> ok
    | Ok s -> Error (Printf.sprintf "expected schema qspr-result/3, got %s" s)
  in
  let* job_id = field_str "id" json in
  let* status = field_str "status" json in
  let* verdict =
    match status with
    | "ok" ->
        let* quote_us = req_float "quote_us" json in
        let* latency_us = req_float "latency_us" json in
        let* lower_bound_us = opt_float "lower_bound_us" json in
        let* bound_kind = opt_str "bound_kind" json in
        let* optimality_gap = opt_float "optimality_gap" json in
        let* placement_runs = req_int "placement_runs" json in
        let* engine_evals = req_int "engine_evals" json in
        let* degraded = opt_bool "degraded" json in
        let* direction = field_str "direction" json in
        let* shed = opt_str "shed" json in
        let* cert =
          match Json.member "certificate" json with
          | Some c ->
              let* digest_s = field_str "digest" c in
              let* digest = digest_of_string digest_s in
              let* valid = opt_bool "valid" c in
              Ok (digest, Option.value ~default:false valid)
          | None -> Error "missing field \"certificate\""
        in
        let* attempts = decode_list "attempts" decode_attempt json in
        Ok
          (Completed
             {
               latency_us;
               quote_us;
               lower_bound_us = Option.value ~default:0.0 lower_bound_us;
               bound_kind = Option.value ~default:"critical-path" bound_kind;
               optimality_gap;
               placement_runs;
               engine_evals;
               degraded = Option.value ~default:false degraded;
               direction;
               shed = Option.value ~default:"none" shed;
               certificate_digest = fst cert;
               certificate_valid = snd cert;
               attempts;
             })
    | "rejected" ->
        let* stage = field_str "stage" json in
        let* reason = field_str "reason" json in
        let* quote_us = opt_float "quote_us" json in
        let* findings = decode_list "findings" (fun f -> Ok f) json in
        Ok (Rejected { stage; reason; quote_us; findings })
    | "failed" ->
        let* reason = field_str "reason" json in
        let* quote_us = opt_float "quote_us" json in
        let* attempts = decode_list "attempts" decode_attempt json in
        Ok (Failed { reason; quote_us; attempts })
    | other -> Error (Printf.sprintf "unknown status %S" other)
  in
  let* cache =
    match Json.member "cache" json with
    | None | Some Json.Null -> Ok None
    | Some c -> Result.map Option.some (decode_cache c)
  in
  let* cpu_s = opt_float "cpu_s" json in
  let* cached = opt_bool "cached" json in
  Ok
    {
      job_id;
      verdict;
      cache;
      cpu_s = Option.value ~default:0.0 cpu_s;
      cached = Option.value ~default:false cached;
    }

let response_to_line ?deterministic r = Json.to_string ~indent:false (encode_response ?deterministic r)

let response_of_line line =
  match Json.parse line with
  | Error e -> Error ("bad response JSON: " ^ e)
  | Ok j -> decode_response j

let exit_code responses =
  List.fold_left
    (fun acc r ->
      Int.max acc (match r.verdict with Completed _ -> 0 | Failed _ -> 1 | Rejected _ -> 2))
    0 responses
