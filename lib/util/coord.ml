type t = { x : int; y : int }

let make x y = { x; y }
let equal a b = a.x = b.x && a.y = b.y
let compare a b = if a.y <> b.y then Int.compare a.y b.y else Int.compare a.x b.x
let hash a = (a.y * 7919) + a.x
let pp ppf a = Format.fprintf ppf "(%d,%d)" a.x a.y
let to_string a = Format.asprintf "%a" pp a

let manhattan a b = abs (a.x - b.x) + abs (a.y - b.y)
let midpoint a b = { x = (a.x + b.x) / 2; y = (a.y + b.y) / 2 }
let add a b = { x = a.x + b.x; y = a.y + b.y }

type dir = North | South | East | West

let all_dirs = [ North; South; East; West ]

let step c = function
  | North -> { c with y = c.y - 1 }
  | South -> { c with y = c.y + 1 }
  | East -> { c with x = c.x + 1 }
  | West -> { c with x = c.x - 1 }

let opposite = function North -> South | South -> North | East -> West | West -> East

let dir_between a b =
  match (b.x - a.x, b.y - a.y) with
  | 1, 0 -> Some East
  | -1, 0 -> Some West
  | 0, 1 -> Some South
  | 0, -1 -> Some North
  | _ -> None

let is_horizontal = function East | West -> true | North | South -> false

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
module Tbl = Hashtbl.Make (Hashed)
