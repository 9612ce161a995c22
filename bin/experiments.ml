(* Experiment driver: regenerates every table and figure of the paper's
   evaluation (Section V).

   Usage:  experiments [--fast] [--certify] [--json=DIR] [STUDY...]
   (`experiments --help` lists the studies)

   Each study prints under a "## title" heading: its tables as padded
   GitHub markdown (the layout of EXPERIMENTS.md), its pictures as fenced
   blocks.  --json=DIR also writes every table as DIR/STUDY.json (a study's
   later tables as STUDY-2.json, STUDY-3.json, ...).  --fast shrinks the
   MVFB seed counts (m) so a full sweep completes in seconds; the default
   reproduces the paper's protocol (m = 25 / 100). *)

module E = Qspr.Experiments

let fast = ref false
let json_dir = ref None
let certify = ref false

(* --certify: re-map every Table-1 circuit and replay each trace through the
   independent certifier — a mapper bug that fabricates latencies fails the
   whole experiment run instead of silently entering the table. *)
let certificates ~fast =
  let config = Qspr.Config.with_m (E.m_small ~fast) Qspr.Config.default in
  let rows =
    List.map
      (fun (name, program) ->
        match Qspr.Mapper.create ~fabric:(E.fabric ()) ~config program with
        | Error e -> (name, false, "mapping failed: " ^ e)
        | Ok ctx -> (
            match Qspr.Mapper.map Mvfb ctx with
            | Error e -> (name, false, "mapping failed: " ^ Qspr.Mapper.error_to_string e)
            | Ok sol ->
                let cert = Analysis.Certify.of_solution ctx sol in
                (name, cert.Analysis.Certify.valid, Format.asprintf "%a" Analysis.Certify.pp cert)))
      (Circuits.Qecc.all ())
  in
  let cell s = { E.text = s; value = Ion_util.Json.String s } in
  let table =
    E.Table
      {
        columns = [ { header = "circuit"; key = "circuit" }; { header = "certificate"; key = "certificate" } ];
        rows = List.map (fun (name, _, text) -> [ cell name; cell text ]) rows;
      }
  in
  if List.for_all (fun (_, valid, _) -> valid) rows then [ table ]
  else begin
    prerr_string (E.markdown table);
    prerr_endline "certification failed: at least one Table-1 trace does not replay";
    exit 1
  end

(* The fault campaign lives above the mapper library, so its study is
   registered here; its JSON is the documented qspr-faults/2 report. *)
let faults ~fast =
  let levels = if fast then [ 0; 2; 6 ] else [ 0; 2; 6; 12; 24 ] in
  let trials = if fast then 2 else 5 in
  let config = Qspr.Config.with_m (E.m_small ~fast) Qspr.Config.default in
  match
    Fault.campaign ~config ~seed:2012 ~levels ~trials ~fabric:(E.fabric ()) (Circuits.Qecc.c513 ())
  with
  | Error e ->
      Printf.eprintf "fault campaign failed: %s\n" e;
      exit 1
  | Ok report ->
      [ E.Text { text = Format.asprintf "@[<v>%a@]@." Fault.pp report; json = Some (Fault.to_json report) } ]

let studies =
  E.studies
  @ [
      {
        E.name = "faults";
        title = "Fault-injection survivability ([[5,1,3]], retry cascade on degraded fabrics)";
        run = faults;
      };
    ]

(* The k-th JSON document of study S goes to S.json, then S-2.json, ... *)
let run (s : E.study) =
  Printf.printf "## %s\n\n%!" s.title;
  let sections = s.run ~fast:!fast in
  let sections = if !certify && s.name = "table1" then sections @ certificates ~fast:!fast else sections in
  let written = ref 0 in
  List.iter
    (fun section ->
      print_string (E.markdown section);
      print_newline ();
      let doc = match section with E.Table t -> Some (E.json t) | E.Text { json; _ } -> json in
      match (!json_dir, doc) with
      | Some dir, Some doc ->
          incr written;
          let file = if !written = 1 then s.name else Printf.sprintf "%s-%d" s.name !written in
          Out_channel.with_open_text
            (Filename.concat dir (file ^ ".json"))
            (fun oc -> Out_channel.output_string oc (Ion_util.Json.to_string doc))
      | _ -> ())
    sections

let usage =
  Printf.sprintf
    "usage: experiments [--fast] [--certify] [--json=DIR] [STUDY...]\n\
     \  --fast        shrink the MVFB seed counts so a full sweep takes seconds\n\
     \  --certify     with table1, replay every Table-1 trace through the certifier\n\
     \  --json=DIR    also write every table as JSON into DIR (which must exist)\n\
     \  --help        print this message\n\
     studies (default: all, every study below in this order):\n%s"
    (String.concat "" (List.map (fun (s : E.study) -> Printf.sprintf "  %-14s%s\n" s.name s.title) studies))

(* argument errors print the usage and exit 2, like any other CLI misuse *)
let usage_error msg =
  Printf.eprintf "experiments: %s\n%s" msg usage;
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let commands, flags = List.partition (fun a -> not (String.starts_with ~prefix:"--" a)) args in
  List.iter
    (fun f ->
      if f = "--help" then begin
        print_string usage;
        exit 0
      end
      else if f = "--fast" then fast := true
      else if f = "--certify" then certify := true
      else if String.starts_with ~prefix:"--json=" f then begin
        let dir = String.sub f 7 (String.length f - 7) in
        if not (Sys.file_exists dir && Sys.is_directory dir) then
          usage_error (Printf.sprintf "--json=%s: no such directory" dir);
        json_dir := Some dir
      end
      else usage_error ("unknown flag " ^ f))
    flags;
  let study name =
    match List.find_opt (fun (s : E.study) -> s.name = name) studies with
    | Some s -> s
    | None -> usage_error (Printf.sprintf "unknown study %S" name)
  in
  match commands with
  | [] | [ "all" ] -> List.iter run studies
  | names -> List.iter run (List.map study names)
