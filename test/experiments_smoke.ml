(* Checks one `experiments --fast --json=DIR all` run end to end.

   Usage:  experiments_smoke HELP OUT DIR

   HELP is the driver's --help output (its study list: name, then title),
   OUT its stdout and DIR its --json directory.  Every listed study must
   print its "## title" heading; every markdown table under it must have
   the header's column count on each line and a JSON file in DIR (the k-th
   table of study S is S.json, then S-2.json, ...) that parses to one
   object per row; and every file in DIR must parse. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("experiments smoke: " ^ s); exit 1) fmt
let lines path = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)

let parse path =
  match Ion_util.Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok doc -> doc
  | Error e -> fail "%s does not parse: %s" path e

(* the study lines after the "studies" line: two spaces, name, title *)
let studies help =
  let rec after = function
    | [] -> fail "no study list in the --help output"
    | l :: rest when String.starts_with ~prefix:"studies" l -> rest
    | _ :: rest -> after rest
  in
  List.filter_map
    (fun l ->
      match String.index_opt (String.trim l) ' ' with
      | Some i when String.starts_with ~prefix:"  " l ->
          let l = String.trim l in
          Some (String.sub l 0 i, String.trim (String.sub l i (String.length l - i)))
      | _ -> None)
    (after (lines help))

(* The markdown tables of one study's output: each a list of its lines,
   header and rule included.  Fenced blocks are skipped. *)
let tables body =
  let rec go acc current fenced = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | l :: rest when String.starts_with ~prefix:"```" l -> go acc current (not fenced) rest
    | l :: rest when (not fenced) && String.starts_with ~prefix:"|" l -> go acc (l :: current) fenced rest
    | _ :: rest -> go (if current = [] then acc else List.rev current :: acc) [] fenced rest
  in
  go [] [] false body

let bars l = String.fold_left (fun n c -> if c = '|' then n + 1 else n) 0 l

let () =
  let help, out, dir =
    match Sys.argv with
    | [| _; help; out; dir |] -> (help, out, dir)
    | _ -> fail "usage: experiments_smoke HELP OUT DIR"
  in
  let studies = studies help in
  if studies = [] then fail "the --help output lists no studies";
  let out = lines out in
  let n_tables = ref 0 in
  List.iter
    (fun (name, title) ->
      let rec body = function
        | [] -> fail "study %s: heading %S not printed" name title
        | l :: rest when l = "## " ^ title ->
            let rec upto acc = function
              | l :: _ when String.starts_with ~prefix:"## " l -> List.rev acc
              | l :: rest -> upto (l :: acc) rest
              | [] -> List.rev acc
            in
            upto [] rest
        | _ :: rest -> body rest
      in
      List.iteri
        (fun k table ->
          incr n_tables;
          let header = List.hd table in
          List.iter
            (fun l -> if bars l <> bars header then fail "study %s: line %S has the wrong cell count" name l)
            table;
          let file = Filename.concat dir (if k = 0 then name ^ ".json" else Printf.sprintf "%s-%d.json" name (k + 1)) in
          if not (Sys.file_exists file) then fail "study %s: table %d wrote no %s" name (k + 1) file;
          match parse file with
          | Ion_util.Json.List rows when List.length rows = List.length table - 2 -> ()
          | _ -> fail "%s is not one object per row of its table" file)
        (tables (body out)))
    studies;
  let files = Sys.readdir dir in
  Array.iter (fun f -> ignore (parse (Filename.concat dir f))) files;
  Printf.printf "experiments smoke: %d studies, %d tables, %d JSON files parse\n" (List.length studies)
    !n_tables (Array.length files)
