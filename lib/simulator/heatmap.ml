module Coord = Ion_util.Coord
module Component = Fabric.Component
open Router

(* entries per resource id: a Move counts when its destination cell's
   resource differs from its source cell's *)
let crossings comp trace =
  let counts = Array.make (Component.num_resources comp) 0 in
  let resource_of c = Int.max (-1) (Component.cell_code comp c) in
  List.iter
    (fun cmd ->
      match cmd with
      | Micro.Move { from_; to_; _ } ->
          let rt = resource_of to_ in
          if rt >= 0 && resource_of from_ <> rt then counts.(rt) <- counts.(rt) + 1
      | Micro.Turn _ | Micro.Gate_start _ | Micro.Gate_end _ -> ())
    trace;
  counts

let nsegs comp = Array.length (Component.segments comp)
let segment_crossings comp trace = Array.sub (crossings comp trace) 0 (nsegs comp)

let junction_crossings comp trace =
  Array.sub (crossings comp trace) (nsegs comp) (Array.length (Component.junctions comp))

let busiest_segments comp trace k =
  let segs = segment_crossings comp trace in
  Array.to_list (Array.mapi (fun i c -> (i, c)) segs)
  |> List.sort (fun (i1, c1) (i2, c2) -> match Int.compare c2 c1 with 0 -> Int.compare i1 i2 | c -> c)
  |> List.filteri (fun i _ -> i < k)

let render comp trace =
  let lay = Component.layout comp in
  let counts = crossings comp trace in
  let digit n = if n = 0 then '.' else if n < 10 then Char.chr (Char.code '0' + n) else '*' in
  let marks = ref [] in
  Fabric.Layout.iter lay (fun c _ ->
      let r = Component.cell_code comp c in
      if r >= 0 then marks := (c, digit counts.(r)) :: !marks);
  Fabric.Render.with_marks lay !marks
