module Mat = Wayfinder_tensor.Mat
module Vec = Wayfinder_tensor.Vec
module Rng = Wayfinder_tensor.Rng

type t = { trees : Tree.t array; n_features : int }

let bootstrap rng x y =
  let n = x.Mat.rows in
  let rows = Array.init n (fun _ -> Rng.int rng n) in
  let bx = Mat.of_rows (Array.map (fun i -> Mat.row x i) rows) in
  let by = Array.map (fun i -> y.(i)) rows in
  (bx, by)

let fit ?(n_trees = 64) ?(max_depth = 12) ?(min_samples = 4) ?features_per_split rng x y =
  if x.Mat.rows = 0 then invalid_arg "Forest.fit: empty data";
  let d = x.Mat.cols in
  let features_per_split =
    match features_per_split with
    | Some opt -> opt
    | None -> Some (max 1 (d / 3))
  in
  let trees =
    Array.init n_trees (fun _ ->
        let bx, by = bootstrap rng x y in
        Tree.fit ~max_depth ~min_samples ?features_per_split rng bx by)
  in
  { trees; n_features = d }

let predict t v =
  let acc = ref 0. in
  Array.iter (fun tree -> acc := !acc +. Tree.predict tree v) t.trees;
  !acc /. float_of_int (Array.length t.trees)

let importance t =
  let acc = Array.make t.n_features 0. in
  Array.iter (fun tree -> Tree.accumulate_importance tree acc) t.trees;
  let total = Array.fold_left ( +. ) 0. acc in
  if total <= 0. then acc else Array.map (fun v -> v /. total) acc

let r_squared t x y =
  let n = x.Mat.rows in
  if n = 0 then 0.
  else begin
    let mean_y = Vec.mean y in
    let ss_res = ref 0. and ss_tot = ref 0. in
    for i = 0 to n - 1 do
      let p = predict t (Mat.row x i) in
      let e = y.(i) -. p and d = y.(i) -. mean_y in
      ss_res := !ss_res +. (e *. e);
      ss_tot := !ss_tot +. (d *. d)
    done;
    if !ss_tot <= 1e-12 then 0. else 1. -. (!ss_res /. !ss_tot)
  end

let importance_similarity a b =
  if Array.length a <> Array.length b then
    invalid_arg "Forest.importance_similarity: length mismatch";
  let normalise v =
    let total = Array.fold_left ( +. ) 0. v in
    if total <= 0. then v else Array.map (fun x -> x /. total) v
  in
  let a = normalise (Array.copy a) and b = normalise (Array.copy b) in
  1. /. (1. +. Vec.dist a b)
