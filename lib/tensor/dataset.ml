type row = { features : Vec.t; target : float; crashed : bool }

type t = { mutable data : row list; mutable count : int }

let create () = { data = []; count = 0 }

let add t features ~target ~crashed =
  t.data <- { features; target; crashed } :: t.data;
  t.count <- t.count + 1

let size t = t.count

let rows t =
  (* Stored newest-first; expose oldest-first so indices are stable as the
     search history grows. *)
  let a = Array.of_list t.data in
  let n = Array.length a in
  Array.init n (fun i -> a.(n - 1 - i))

let row t i = (rows t).(i)

let feature_dim t =
  match t.data with [] -> 0 | r :: _ -> Vec.dim r.features

type normalizer = { means : Vec.t; stds : Vec.t; t_mean : float; t_std : float }

let fit_normalizer t =
  if t.count = 0 then invalid_arg "Dataset.fit_normalizer: empty dataset";
  let all = rows t in
  let d = Vec.dim all.(0).features in
  let means = Vec.zeros d and stds = Vec.create d 1. in
  for j = 0 to d - 1 do
    let column = Array.map (fun r -> r.features.(j)) all in
    let m, s = Stat.zscore_params column in
    means.(j) <- m;
    stds.(j) <- s
  done;
  let ok_targets =
    Array.of_list (List.filter_map (fun r -> if r.crashed then None else Some r.target) (Array.to_list all))
  in
  let t_mean, t_std =
    if Array.length ok_targets = 0 then (0., 1.) else Stat.zscore_params ok_targets
  in
  { means; stds; t_mean; t_std }

let normalize_features nz v =
  Array.mapi (fun j x -> Stat.zscore ~mean:nz.means.(j) ~std:nz.stds.(j) x) v

let normalize_target nz y = Stat.zscore ~mean:nz.t_mean ~std:nz.t_std y
let denormalize_target nz y = (y *. nz.t_std) +. nz.t_mean
let denormalize_std nz s = s *. nz.t_std

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

let split t rng ~train_fraction =
  let all = rows t in
  Rng.shuffle rng all;
  let n = Array.length all in
  let n_train = int_of_float (train_fraction *. float_of_int n) in
  let train = create () and test = create () in
  Array.iteri
    (fun i r ->
      let dst = if i < n_train then train else test in
      add dst r.features ~target:r.target ~crashed:r.crashed)
    all;
  (train, test)
