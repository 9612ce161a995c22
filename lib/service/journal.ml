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

let replay path =
  if not (Sys.file_exists path) then []
  else begin
    let lines = In_channel.with_open_text path In_channel.input_lines in
    (* stop at the first unparseable record: everything after a torn or
       corrupt line is positionally meaningless *)
    let rec take acc = function
      | [] -> List.rev acc
      | line :: rest -> (
          match parse_record line with None -> List.rev acc | Some e -> take (e :: acc) rest)
    in
    take [] lines
  end

let consumed_slot (r : Protocol.response) =
  match r.Protocol.verdict with
  | Protocol.Completed _ | Protocol.Failed _ -> true
  | Protocol.Rejected { stage; _ } -> String.equal stage "shed" || String.equal stage "queue"

type t = { oc : out_channel }

let open_append path =
  { oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path }

let append t ~key ~response_line =
  Printf.fprintf t.oc "%s %016Lx %s\n" magic key response_line;
  (* flush per record: the crash-only contract is that every response the
     client saw is durable before the next one is computed *)
  flush t.oc

let close t = close_out t.oc
