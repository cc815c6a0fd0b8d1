type row = { features : Vec.t; targets : float array; crashed : bool }

type t = { mutable data : row list; mutable count : int }

let create () = { data = []; count = 0 }

let add_targets t features ~targets ~crashed =
  let k = Array.length targets in
  if k = 0 then invalid_arg "Dataset.add_targets: no targets";
  (match t.data with
  | r :: _ when Array.length r.targets <> k ->
    invalid_arg "Dataset.add_targets: target count differs from earlier rows"
  | _ :: _ | [] -> ());
  t.data <- { features; targets; crashed } :: t.data;
  t.count <- t.count + 1

let add t features ~target ~crashed = add_targets t features ~targets:[| target |] ~crashed

let size t = t.count

let rows t =
  (* Stored newest-first; expose oldest-first so indices are stable as the
     search history grows. *)
  let a = Array.of_list t.data in
  let n = Array.length a in
  Array.init n (fun i -> a.(n - 1 - i))

let row t i = (rows t).(i)

let target_dim t =
  match t.data with [] -> 0 | r :: _ -> Array.length r.targets

type normalizer = {
  means : Vec.t;
  stds : Vec.t;
  t_means : float array;
  t_stds : float array;
}

let fit_normalizer t =
  if t.count = 0 then invalid_arg "Dataset.fit_normalizer: empty dataset";
  let all = rows t in
  let n = float_of_int (Array.length all) and d = Vec.dim all.(0).features in
  (* [Stat.zscore_params] of every column in two sweeps over the rows,
     oldest first: the sums, then the squared deviations from the means.
     Each column's sums start at [0.] and add in row order, as the
     per-column fold does, so every mean and std keeps its bits. *)
  let means = Vec.zeros d and stds = Vec.zeros d in
  Array.iter
    (fun r ->
      let f = r.features in
      if Vec.dim f < d then invalid_arg "Dataset.fit_normalizer: short feature row";
      for j = 0 to d - 1 do
        Array.unsafe_set means j (Array.unsafe_get means j +. Array.unsafe_get f j)
      done)
    all;
  for j = 0 to d - 1 do
    means.(j) <- means.(j) /. n
  done;
  Array.iter
    (fun r ->
      let f = r.features in
      for j = 0 to d - 1 do
        let dev = Array.unsafe_get f j -. Array.unsafe_get means j in
        Array.unsafe_set stds j (Array.unsafe_get stds j +. (dev *. dev))
      done)
    all;
  for j = 0 to d - 1 do
    let s = sqrt (stds.(j) /. n) in
    stds.(j) <- (if s < Stat.epsilon_std then Stat.epsilon_std else s)
  done;
  let ok = List.filter (fun r -> not r.crashed) (Array.to_list all) in
  let k = Array.length all.(0).targets in
  let t_means = Array.make k 0. and t_stds = Array.make k 1. in
  if ok <> [] then
    for m = 0 to k - 1 do
      let mean, std = Stat.zscore_params (Array.of_list (List.map (fun r -> r.targets.(m)) ok)) in
      t_means.(m) <- mean;
      t_stds.(m) <- std
    done;
  { means; stds; t_means; t_stds }

let normalize_target nz ~metric y = Stat.zscore ~mean:nz.t_means.(metric) ~std:nz.t_stds.(metric) y
let denormalize_target nz ~metric y = (y *. nz.t_stds.(metric)) +. nz.t_means.(metric)
let denormalize_std nz ~metric s = s *. nz.t_stds.(metric)

let batches t rng ~batch_size =
  if batch_size <= 0 then invalid_arg "Dataset.batches: batch_size must be positive";
  let all = rows t in
  Rng.shuffle rng all;
  let n = Array.length all in
  let rec cut start acc =
    if start >= n then List.rev acc
    else
      let len = min batch_size (n - start) in
      cut (start + len) (Array.sub all start len :: acc)
  in
  cut 0 []
