module Coord = Ion_util.Coord

type junction = { jid : int; jpos : Coord.t }

type segment = { sid : int; orientation : Cell.orientation; cells : Coord.t array }

type trap = { tid : int; tpos : Coord.t; tap : Coord.t }

type t = {
  layout : Layout.t;
  junctions : junction array;
  segments : segment array;
  traps : trap array;
  seg_of_cell : int Coord.Tbl.t;
  junc_of_cell : int Coord.Tbl.t;
  trap_of_cell : int Coord.Tbl.t;
}

let layout t = t.layout
let junctions t = t.junctions
let segments t = t.segments
let traps t = t.traps

let segment_at t c = Coord.Tbl.find_opt t.seg_of_cell c
let junction_at t c = Coord.Tbl.find_opt t.junc_of_cell c
let trap_at t c = Coord.Tbl.find_opt t.trap_of_cell c

let extract_segments lay =
  let segs = ref [] in
  let nsegs = ref 0 in
  let seg_of_cell = Coord.Tbl.create 256 in
  let run_from c orientation =
    (* collect the maximal run starting at [c] going east/south; [c] is the
       first channel cell of the run (its west/north neighbour is not a
       same-orientation channel) *)
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
            let cells = Array.of_list (run_from c orientation) in
            let sid = !nsegs in
            incr nsegs;
            Array.iter (fun cc -> Coord.Tbl.replace seg_of_cell cc sid) cells;
            segs := { sid; orientation; cells } :: !segs
          end
      | Cell.Empty | Cell.Junction | Cell.Trap -> ());
  (Array.of_list (List.rev !segs), seg_of_cell)

let extract lay =
  let junctions = ref [] and njunc = ref 0 in
  let junc_of_cell = Coord.Tbl.create 64 in
  let traps = ref [] and ntrap = ref 0 in
  let trap_of_cell = Coord.Tbl.create 64 in
  let missing_tap = ref None in
  Layout.iter lay (fun c cell ->
      match cell with
      | Cell.Junction ->
          let jid = !njunc in
          incr njunc;
          Coord.Tbl.replace junc_of_cell c jid;
          junctions := { jid; jpos = c } :: !junctions
      | Cell.Trap -> (
          let tap = List.find_opt (fun d -> Cell.is_walkable (Layout.get lay (Coord.step c d))) Coord.all_dirs in
          match tap with
          | Some d ->
              let tid = !ntrap in
              incr ntrap;
              Coord.Tbl.replace trap_of_cell c tid;
              traps := { tid; tpos = c; tap = Coord.step c d } :: !traps
          | None ->
              if !missing_tap = None then
                missing_tap := Some (Printf.sprintf "trap at %s has no adjacent channel or junction" (Coord.to_string c)))
      | Cell.Empty | Cell.Channel _ -> ());
  match !missing_tap with
  | Some msg -> Error msg
  | None ->
      let segments, seg_of_cell = extract_segments lay in
      Ok
        {
          layout = lay;
          junctions = Array.of_list (List.rev !junctions);
          segments;
          traps = Array.of_list (List.rev !traps);
          seg_of_cell;
          junc_of_cell;
          trap_of_cell;
        }

let nearest_traps t from =
  let keyed =
    Array.to_list t.traps |> List.map (fun tr -> (Coord.manhattan from tr.tpos, tr.tid))
  in
  List.sort compare keyed |> List.map snd
