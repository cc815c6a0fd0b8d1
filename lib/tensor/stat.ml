let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let variance xs =
  if Array.length xs = 0 then 0.
  else begin
    let m = mean xs in
    let acc = ref 0. in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int (Array.length xs)
  end

let std xs = sqrt (variance xs)

let fold_nonempty name f xs =
  if Array.length xs = 0 then invalid_arg ("Stat." ^ name ^ ": empty input")
  else Array.fold_left f xs.(0) (Array.sub xs 1 (Array.length xs - 1))

let min xs = fold_nonempty "min" Stdlib.min xs
let max xs = fold_nonempty "max" Stdlib.max xs

let sorted_copy name xs qs =
  if Array.length xs = 0 then invalid_arg ("Stat." ^ name ^ ": empty input");
  Array.iter
    (fun q -> if q < 0. || q > 1. then invalid_arg ("Stat." ^ name ^ ": q outside [0, 1]"))
    qs;
  let sorted = Array.copy xs in
  (* Float.compare, not polymorphic compare: the latter is not a total
     order in the presence of NaN, so a single NaN sample silently
     corrupts the sort.  Float.compare sorts NaN first; the NaN policy is
     to propagate — any NaN sample makes the quantile NaN. *)
  Array.sort Float.compare sorted;
  sorted

(* The [q] quantile of a sorted non-empty array, by linear
   interpolation. *)
let sorted_quantile sorted q =
  if Float.is_nan sorted.(0) then Float.nan
  else
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else
    let frac = pos -. float_of_int lo in
    ((1. -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let quantile xs q = sorted_quantile (sorted_copy "quantile" xs [| q |]) q
let quantiles xs qs = Array.map (sorted_quantile (sorted_copy "quantiles" xs qs)) qs

let median xs = quantile xs 0.5

let mad xs =
  let m = median xs in
  median (Array.map (fun x -> Float.abs (x -. m)) xs)

let epsilon_std = 1e-9

let zscore_params xs =
  let s = std xs in
  (mean xs, if s < epsilon_std then epsilon_std else s)

let zscore ~mean ~std x = (x -. mean) /. std

let min_max_norm ~lo ~hi x =
  if hi -. lo < epsilon_std then 0.5 else (x -. lo) /. (hi -. lo)

let moving_average w xs =
  let n = Array.length xs in
  Array.init n (fun i ->
      let lo = Stdlib.max 0 (i - w) in
      let hi = Stdlib.min (n - 1) (i + w) in
      let acc = ref 0. in
      for j = lo to hi do
        acc := !acc +. xs.(j)
      done;
      !acc /. float_of_int (hi - lo + 1))

let pearson xs ys =
  if Array.length xs <> Array.length ys then invalid_arg "Stat.pearson: length mismatch";
  let sx = std xs and sy = std ys in
  if sx < epsilon_std || sy < epsilon_std then 0.
  else begin
    let mx = mean xs and my = mean ys in
    let acc = ref 0. in
    Array.iteri (fun i x -> acc := !acc +. ((x -. mx) *. (ys.(i) -. my))) xs;
    !acc /. (float_of_int (Array.length xs) *. sx *. sy)
  end

(* Fractional (mid-) ranks: ties share the average of the positions they
   occupy, the standard treatment that keeps Spearman's rho in [-1, 1]
   under ties. *)
let ranks xs =
  let n = Array.length xs in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare xs.(a) xs.(b)) order;
  let out = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(order.(!j + 1)) = xs.(order.(!i)) do incr j done;
    (* Positions !i..!j (0-based) hold equal values: mid-rank, 1-based. *)
    let r = float_of_int (!i + !j + 2) /. 2. in
    for k = !i to !j do
      out.(order.(k)) <- r
    done;
    i := !j + 1
  done;
  out

let spearman xs ys =
  if Array.length xs <> Array.length ys then invalid_arg "Stat.spearman: length mismatch";
  if Array.length xs = 0 then 0.
  else if Array.exists Float.is_nan xs || Array.exists Float.is_nan ys then Float.nan
  else pearson (ranks xs) (ranks ys)

let mae preds targets =
  if Array.length preds <> Array.length targets then invalid_arg "Stat.mae: length mismatch";
  if Array.length preds = 0 then 0.
  else begin
    let acc = ref 0. in
    Array.iteri (fun i p -> acc := !acc +. abs_float (p -. targets.(i))) preds;
    !acc /. float_of_int (Array.length preds)
  end

let normalized_mae preds targets =
  (* [mae] is empty-safe (returns 0.) but [max]/[min] are not: guard the
     empty case before touching the range so the empty-input convention
     matches [mean]/[mae]. *)
  if Array.length targets = 0 then mae preds targets
  else
    let range = max targets -. min targets in
    if range < epsilon_std then mae preds targets
    else mae preds targets /. range
