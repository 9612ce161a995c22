type t = {
  name : string;
  timing : Router.Timing.t;
  channel_capacity : int;
  junction_capacity : int;
  layout : Fabric.Layout.t;
}

let fabric_marker = "--- fabric ---"

type accum = {
  mutable a_name : string;
  mutable t_move : float;
  mutable t_turn : float;
  mutable t_gate1 : float;
  mutable t_gate2 : float;
  mutable chan_cap : int;
  mutable junc_cap : int;
  mutable fabric_kind : string;
  mutable width : int;
  mutable height : int;
  mutable pitch_x : int;
  mutable pitch_y : int;
  mutable margin : int;
  mutable tpc : int;
  mutable traps : int;
}

let default_accum () =
  {
    a_name = "pmd";
    t_move = 1.0;
    t_turn = 10.0;
    t_gate1 = 10.0;
    t_gate2 = 100.0;
    chan_cap = 2;
    junc_cap = 2;
    fabric_kind = "grid";
    width = 85;
    height = 45;
    pitch_x = 8;
    pitch_y = 7;
    margin = 2;
    tpc = 1;
    traps = 16;
  }

let err line fmt = Printf.ksprintf (fun s -> Error (Printf.sprintf "line %d: %s" line s)) fmt

(* one line may hold several "key = value" pairs *)
let parse_pairs line s =
  let strip str =
    let is_space c = c = ' ' || c = '\t' || c = '\r' in
    let n = String.length str in
    let i = ref 0 and j = ref (n - 1) in
    while !i < n && is_space str.[!i] do incr i done;
    while !j >= !i && is_space str.[!j] do decr j done;
    String.sub str !i (!j - !i + 1)
  in
  let body = match String.index_opt s '#' with Some i -> String.sub s 0 i | None -> s in
  (* split on whitespace runs into tokens, then group KEY = VALUE *)
  let tokens =
    String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) body)
    |> List.filter (fun t -> strip t <> "")
    |> List.map strip
  in
  (* re-join and split on '=' boundaries: accept "k = v" and "k=v" *)
  let joined = String.concat " " tokens in
  if strip joined = "" then Ok []
  else begin
    let parts = String.split_on_char '=' joined in
    match parts with
    | [] | [ _ ] -> err line "expected key = value"
    | first :: rest ->
        (* "a = 1 b = 2" splits to ["a "; " 1 b "; " 2"]: the middle chunks
           carry the previous value and the next key *)
        let rec go key acc = function
          | [] -> err line "dangling '='"
          | [ last ] -> Ok (List.rev ((strip key, strip last) :: acc))
          | chunk :: rest -> (
              let chunk = strip chunk in
              match String.rindex_opt chunk ' ' with
              | None -> err line "expected a value before key %S" chunk
              | Some i ->
                  let value = strip (String.sub chunk 0 i) in
                  let next_key = strip (String.sub chunk (i + 1) (String.length chunk - i - 1)) in
                  go next_key ((strip key, value) :: acc) rest)
        in
        go first [] rest
  end

let apply line acc (key, value) =
  let int_v () = match int_of_string_opt value with Some v -> Ok v | None -> err line "%s: expected an integer, got %S" key value in
  let float_v () = match float_of_string_opt value with Some v -> Ok v | None -> err line "%s: expected a number, got %S" key value in
  match key with
  | "name" ->
      acc.a_name <- value;
      Ok ()
  | "t_move_us" -> Result.map (fun v -> acc.t_move <- v) (float_v ())
  | "t_turn_us" -> Result.map (fun v -> acc.t_turn <- v) (float_v ())
  | "t_gate1_us" -> Result.map (fun v -> acc.t_gate1 <- v) (float_v ())
  | "t_gate2_us" -> Result.map (fun v -> acc.t_gate2 <- v) (float_v ())
  | "channel_capacity" -> Result.map (fun v -> acc.chan_cap <- v) (int_v ())
  | "junction_capacity" -> Result.map (fun v -> acc.junc_cap <- v) (int_v ())
  | "fabric" ->
      acc.fabric_kind <- value;
      Ok ()
  | "width" -> Result.map (fun v -> acc.width <- v) (int_v ())
  | "height" -> Result.map (fun v -> acc.height <- v) (int_v ())
  | "pitch_x" -> Result.map (fun v -> acc.pitch_x <- v) (int_v ())
  | "pitch_y" -> Result.map (fun v -> acc.pitch_y <- v) (int_v ())
  | "margin" -> Result.map (fun v -> acc.margin <- v) (int_v ())
  | "traps_per_channel" -> Result.map (fun v -> acc.tpc <- v) (int_v ())
  | "traps" -> Result.map (fun v -> acc.traps <- v) (int_v ())
  | other -> err line "unknown key %S" other

let parse src =
  let lines = String.split_on_char '\n' src in
  (* split off an inline fabric section if present *)
  let rec split_fabric acc = function
    | [] -> (List.rev acc, None)
    | l :: rest when String.trim l = fabric_marker -> (List.rev acc, Some (String.concat "\n" rest))
    | l :: rest -> split_fabric (l :: acc) rest
  in
  let header, inline_fabric = split_fabric [] lines in
  let acc = default_accum () in
  let rec go line = function
    | [] -> Ok ()
    | l :: rest -> (
        match parse_pairs line l with
        | Error _ as e -> e
        | Ok pairs -> (
            let rec apply_all = function
              | [] -> Ok ()
              | kv :: more -> ( match apply line acc kv with Error _ as e -> e | Ok () -> apply_all more)
            in
            match apply_all pairs with Error _ as e -> e | Ok () -> go (line + 1) rest))
  in
  match go 1 header with
  | Error _ as e -> e
  | Ok () -> (
      let layout =
        match (acc.fabric_kind, inline_fabric) with
        | "grid", _ -> (
            match
              Fabric.Layout.make_grid ~width:acc.width ~height:acc.height ~pitch_x:acc.pitch_x
                ~pitch_y:acc.pitch_y ~margin:acc.margin ~traps_per_channel:acc.tpc ()
            with
            | lay -> Ok lay
            | exception Invalid_argument m -> Error ("grid fabric: " ^ m))
        | "linear", _ -> (
            match Fabric.Layout.linear ~traps:acc.traps () with
            | lay -> Ok lay
            | exception Invalid_argument m -> Error ("linear fabric: " ^ m))
        | "inline", Some body -> Fabric.Layout.parse body
        | "inline", None -> Error (Printf.sprintf "fabric = inline requires a %S section" fabric_marker)
        | other, _ -> Error (Printf.sprintf "unknown fabric kind %S (grid | linear | inline)" other)
      in
      match layout with
      | Error _ as e -> e
      | Ok layout -> (
          match
            Router.Timing.make ~t_move:acc.t_move ~t_turn:acc.t_turn ~t_gate1:acc.t_gate1
              ~t_gate2:acc.t_gate2 ()
          with
          | exception Invalid_argument m -> Error m
          | timing ->
              if acc.chan_cap < 1 || acc.junc_cap < 1 then Error "capacities must be positive"
              else
                Ok
                  {
                    name = acc.a_name;
                    timing;
                    channel_capacity = acc.chan_cap;
                    junction_capacity = acc.junc_cap;
                    layout;
                  }))

let parse_file path = Result.bind (Ion_util.File.read path) parse

let paper =
  {
    name = "paper-ion-trap";
    timing = Router.Timing.paper;
    channel_capacity = 2;
    junction_capacity = 2;
    layout = Fabric.Layout.quale_45x85 ();
  }

let to_string t =
  Printf.sprintf
    "name = %s\nt_move_us = %g\nt_turn_us = %g\nt_gate1_us = %g\nt_gate2_us = %g\n\
     channel_capacity = %d\njunction_capacity = %d\nfabric = inline\n%s\n%s"
    t.name t.timing.Router.Timing.t_move t.timing.Router.Timing.t_turn t.timing.Router.Timing.t_gate1
    t.timing.Router.Timing.t_gate2 t.channel_capacity t.junction_capacity fabric_marker
    (Fabric.Layout.to_ascii t.layout)

let config t =
  let base = Config.default in
  {
    base with
    Config.timing = t.timing;
    Config.qspr_policy =
      {
        base.Config.qspr_policy with
        Simulator.Engine.channel_capacity = t.channel_capacity;
        Simulator.Engine.junction_capacity = t.junction_capacity;
      };
  }
