let magic = "qspr-journal/1"

let key s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

type entry = { key : int64; response_line : string; response : Protocol.response }

(* A record is one line: magic, 16-hex key of the request it answers, then
   the verbatim response line.  Validity requires the embedded response to
   decode — a torn tail (the process died mid-append) is a prefix of a
   valid record, and no JSON prefix decodes, so torn writes drop out here
   instead of poisoning the replay. *)
let parse_record line =
  match String.split_on_char ' ' line with
  | m :: k :: rest when String.equal m magic -> (
      match Int64.of_string_opt ("0x" ^ k) with
      | None -> None
      | Some key -> (
          let response_line = String.concat " " rest in
          match Protocol.response_of_line response_line with
          | Error _ -> None
          | Ok response -> Some { key; response_line; response }))
  | _ -> None

(* The records before the first torn or corrupt line (everything after it
   is positionally meaningless; a line missing its newline is torn), and
   the offset just past the last one. *)
let scan path =
  let text = if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all else "" in
  let rec take acc pos =
    match String.index_from_opt text pos '\n' with
    | None -> (List.rev acc, pos)
    | Some nl -> (
        match parse_record (String.sub text pos (nl - pos)) with
        | Some e -> take (e :: acc) (nl + 1)
        | None -> (List.rev acc, pos))
  in
  take [] 0

let replay path = fst (scan path)

type t = { oc : out_channel }

let open_append path =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  (* cut the torn tail the first appended record would be glued onto *)
  Unix.truncate path (snd (scan path));
  { oc }

let append t ~key ~response_line =
  Printf.fprintf t.oc "%s %016Lx %s\n" magic key response_line;
  (* flush per record: the crash-only contract is that every response the
     client saw is durable before the next one is computed *)
  flush t.oc

let close t = close_out t.oc
