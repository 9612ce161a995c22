module Coord = Ion_util.Coord

type junction = { jid : int; jpos : Coord.t }

type segment = { sid : int; orientation : Cell.orientation; cells : Coord.t array }

type trap = { tid : int; tpos : Coord.t; tap : Coord.t }

type resource = int

(* [cell_codes] is the flat cell index, row-major like the layout: the
   resource id of a channel or junction cell, [-2 - tid] for trap [tid],
   [-1] for an empty cell *)
type t = {
  layout : Layout.t;
  junctions : junction array;
  segments : segment array;
  traps : trap array;
  width : int;
  height : int;
  cell_codes : int array;
}

let layout t = t.layout
let junctions t = t.junctions
let segments t = t.segments
let traps t = t.traps

let num_resources t = Array.length t.segments + Array.length t.junctions
let is_segment t r = r < Array.length t.segments

let empty_code = -1

(* trap [tid]'s cell code, and its own inverse *)
let trap_code tid = -2 - tid

let cell_code t (c : Coord.t) =
  if c.Coord.x >= 0 && c.Coord.x < t.width && c.Coord.y >= 0 && c.Coord.y < t.height then
    Array.unsafe_get t.cell_codes ((c.Coord.y * t.width) + c.Coord.x)
  else empty_code

let segment_at t c =
  let r = cell_code t c in
  if r >= 0 && is_segment t r then Some r else None

let junction_at t c =
  let r = cell_code t c in
  if r >= 0 && not (is_segment t r) then Some (r - Array.length t.segments) else None

let trap_at t c =
  let r = cell_code t c in
  if r < empty_code then Some (trap_code r) else None

(* Channel runs, each the maximal same-orientation run starting at a cell
   whose west/north neighbour does not continue it, in layout order. *)
let extract_segments lay =
  let segs = ref [] in
  let nsegs = ref 0 in
  let run_from c orientation =
    let dir = match orientation with Cell.Horizontal -> Coord.East | Cell.Vertical -> Coord.South in
    let rec collect acc cur =
      match Layout.get lay cur with
      | Cell.Channel o when o = orientation -> collect (cur :: acc) (Coord.step cur dir)
      | _ -> List.rev acc
    in
    collect [] c
  in
  Layout.iter lay (fun c cell ->
      match cell with
      | Cell.Channel orientation ->
          let back = match orientation with Cell.Horizontal -> Coord.West | Cell.Vertical -> Coord.North in
          let prev = Layout.get lay (Coord.step c back) in
          let starts = match prev with Cell.Channel o when o = orientation -> false | _ -> true in
          if starts then begin
            let sid = !nsegs in
            incr nsegs;
            segs := { sid; orientation; cells = Array.of_list (run_from c orientation) } :: !segs
          end
      | Cell.Empty | Cell.Junction | Cell.Trap -> ());
  Array.of_list (List.rev !segs)

let extract lay =
  let junctions = ref [] and njunc = ref 0 in
  let traps = ref [] and ntrap = ref 0 in
  let missing_tap = ref None in
  Layout.iter lay (fun c cell ->
      match cell with
      | Cell.Junction ->
          let jid = !njunc in
          incr njunc;
          junctions := { jid; jpos = c } :: !junctions
      | Cell.Trap -> (
          let tap = List.find_opt (fun d -> Cell.is_walkable (Layout.get lay (Coord.step c d))) Coord.all_dirs in
          match tap with
          | Some d ->
              let tid = !ntrap in
              incr ntrap;
              traps := { tid; tpos = c; tap = Coord.step c d } :: !traps
          | None ->
              if !missing_tap = None then
                missing_tap := Some (Printf.sprintf "trap at %s has no adjacent channel or junction" (Coord.to_string c)))
      | Cell.Empty | Cell.Channel _ -> ());
  match !missing_tap with
  | Some msg -> Error msg
  | None ->
      let segments = extract_segments lay in
      let junctions = Array.of_list (List.rev !junctions) in
      let traps = Array.of_list (List.rev !traps) in
      let w = Layout.width lay and h = Layout.height lay in
      let cell_codes = Array.make (w * h) empty_code in
      let put (c : Coord.t) v = cell_codes.((c.Coord.y * w) + c.Coord.x) <- v in
      let nsegs = Array.length segments in
      Array.iter (fun s -> Array.iter (fun c -> put c s.sid) s.cells) segments;
      Array.iter (fun j -> put j.jpos (nsegs + j.jid)) junctions;
      Array.iter (fun tr -> put tr.tpos (trap_code tr.tid)) traps;
      Ok { layout = lay; junctions; segments; traps; width = w; height = h; cell_codes }

let nearest_traps t from =
  let keyed =
    Array.to_list t.traps |> List.map (fun tr -> (Coord.manhattan from tr.tpos, tr.tid))
  in
  List.sort compare keyed |> List.map snd
