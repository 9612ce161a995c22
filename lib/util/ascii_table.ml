let normalize_row ncols row =
  let len = List.length row in
  if len = ncols then row
  else if len > ncols then List.filteri (fun i _ -> i < ncols) row
  else row @ List.init (ncols - len) (fun _ -> "")

let pad width s = s ^ String.make (width - String.length s) ' '

let render ~header ~rows =
  if header = [] then invalid_arg "Ascii_table.render: no columns";
  let rows = List.map (normalize_row (List.length header)) rows in
  let widths =
    List.mapi
      (fun i h -> List.fold_left (fun w row -> max w (String.length (List.nth row i))) (String.length h) rows)
      header
  in
  let line cells = "| " ^ String.concat " | " (List.map2 pad widths cells) ^ " |\n" in
  let rule = "|" ^ String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "|\n" in
  String.concat "" (line header :: rule :: List.map line rows)
