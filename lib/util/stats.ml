let require_nonempty name = function
  | [] -> invalid_arg ("Stats." ^ name ^ ": empty input")
  | _ -> ()

let mean xs =
  require_nonempty "mean" xs;
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let percentile xs p =
  require_nonempty "percentile" xs;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of [0,100]";
  let a = Array.of_list xs in
  (* Float.compare, not polymorphic compare: the generic comparator
     dispatches on the boxed-float tag per comparison, an order of
     magnitude slower on large samples (and flagged by mcx-lint's
     float-sort-poly-compare rule). NaNs order first under the IEEE
     total order Float.compare implements. *)
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile xs 50.

let success_rate bs =
  require_nonempty "success_rate" bs;
  let n, hits =
    List.fold_left (fun (n, h) b -> (n + 1, if b then h + 1 else h)) (0, 0) bs
  in
  100. *. float_of_int hits /. float_of_int n
