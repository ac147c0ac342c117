(* Order statistics over the samples a run holds.  Every percentile the
   benchmark reports is an exact nearest-rank order statistic — never an
   interpolated or bucketed estimate — and carries its sample count. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least a [q] share of the
   samples at or below it. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs

(* How many samples lie strictly beyond the [q] order statistic. *)
let beyond a q =
  let v = quantile_sorted a q in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 a

(* Self-check on a set of reported quantiles: each lies in [min, max] of
   the samples and the values are monotone in q. *)
let quantiles_sane a qs =
  let n = Array.length a in
  n > 0
  &&
  let vs = List.map (quantile_sorted a) qs in
  List.for_all (fun v -> v >= a.(0) && v <= a.(n - 1)) vs
  &&
  let rec mono = function
    | x :: (y :: _ as rest) -> x <= y && mono rest
    | _ -> true
  in
  mono vs
