let sum = List.fold_left ( +. ) 0.0

let mean = function [] -> 0.0 | xs -> sum xs /. float_of_int (List.length xs)

let variance = function
  | [] | [ _ ] -> 0.0
  | xs ->
      let m = mean xs in
      let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
      sq /. float_of_int (List.length xs)

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty list"
  | x :: xs -> List.fold_left (fun (lo, hi) v -> (min lo v, max hi v)) (x, x) xs

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty list"
  | xs ->
      if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of [0,100]";
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
      if lo = hi then a.(lo)
      else
        let frac = rank -. float_of_int lo in
        a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile 50.0 xs

let geometric_mean = function
  | [] -> 0.0
  | xs ->
      let logs = List.map (fun x -> if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive" else log x) xs in
      exp (mean logs)
