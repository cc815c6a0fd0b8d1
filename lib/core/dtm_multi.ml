module Vec = Wayfinder_tensor.Vec
module Mat = Wayfinder_tensor.Mat
module Rng = Wayfinder_tensor.Rng
module Stat = Wayfinder_tensor.Stat
module Layer = Wayfinder_nn.Layer
module Loss = Wayfinder_nn.Loss
module Network = Wayfinder_nn.Network
module Optimizer = Wayfinder_nn.Optimizer

type row = { features : Vec.t; targets : float array; crashed : bool }

type t = {
  cfg : Dtm.config;
  rng : Rng.t;
  in_dim : int;
  n_metrics : int;
  trunk : Network.t;
  crash_head : Network.t;
  perf_head : Network.t;  (* 2 outputs per metric: (mu_k, s_k) *)
  rbf_layers : Layer.Rbf.t array;
  optimizer : Optimizer.t;
  mutable rows : row list;  (* newest first *)
  mutable count : int;
  (* z-score parameters, refitted by [train] *)
  mutable f_means : Vec.t;
  mutable f_stds : Vec.t;
  mutable t_means : float array;
  mutable t_stds : float array;
}

let z_clip = 6.

let create ?(config = Dtm.default_config) rng ~in_dim ~n_metrics =
  if n_metrics < 1 then invalid_arg "Dtm_multi.create: n_metrics < 1";
  if in_dim <= 0 then invalid_arg "Dtm_multi.create: in_dim must be positive";
  Dtm.validate_config config;
  let trunk_spec =
    List.concat_map
      (fun h -> [ `Dense h; `Relu; `Dropout config.Dtm.dropout ])
      config.Dtm.hidden
  in
  let trunk = Network.create rng ~in_dim trunk_spec in
  let last = List.nth config.Dtm.hidden (List.length config.Dtm.hidden - 1) in
  let crash_head = Network.create rng ~in_dim:last [ `Dense 1 ] in
  let perf_head = Network.create rng ~in_dim:last [ `Dense (2 * n_metrics) ] in
  let rbf_layers =
    Array.of_list
      (List.map
         (fun h ->
           Layer.Rbf.create rng ~in_dim:h ~centroids:config.Dtm.rbf_centroids
             ~gamma:(config.Dtm.rbf_gamma *. sqrt (float_of_int h)))
         config.Dtm.hidden)
  in
  let params =
    Network.params trunk @ Network.params crash_head @ Network.params perf_head
    @ List.concat_map Layer.Rbf.params (Array.to_list rbf_layers)
  in
  { cfg = config;
    rng = Rng.split rng;
    in_dim;
    n_metrics;
    trunk;
    crash_head;
    perf_head;
    rbf_layers;
    optimizer =
      Optimizer.adam ~lr:config.Dtm.learning_rate ~weight_decay:config.Dtm.weight_decay params;
    rows = [];
    count = 0;
    f_means = Vec.zeros in_dim;
    f_stds = Vec.create in_dim 1.;
    t_means = Array.make n_metrics 0.;
    t_stds = Array.make n_metrics 1. }

let in_dim t = t.in_dim
let n_metrics t = t.n_metrics
let observations t = t.count

let add t row =
  if Vec.dim row.features <> t.in_dim then invalid_arg "Dtm_multi.add: feature dim mismatch";
  if Array.length row.targets <> t.n_metrics then
    invalid_arg "Dtm_multi.add: target count mismatch";
  t.rows <- row :: t.rows;
  t.count <- t.count + 1

let normalize_features t x =
  Array.mapi
    (fun j v ->
      let z = Stat.zscore ~mean:t.f_means.(j) ~std:t.f_stds.(j) v in
      Stdlib.max (-.z_clip) (Stdlib.min z_clip z))
    x

type prediction = {
  crash_probability : float;
  performances : float array;
  normalized_performances : float array;
  uncertainty : float;
}

let rbf_uncertainty t hidden =
  let scores =
    List.mapi
      (fun i z ->
        let phi = Layer.Rbf.forward t.rbf_layers.(i) z in
        let best = ref 0. in
        for k = 0 to phi.Mat.cols - 1 do
          if Mat.get phi 0 k > !best then best := Mat.get phi 0 k
        done;
        !best)
      hidden
  in
  1. -. (List.fold_left ( +. ) 0. scores /. float_of_int (List.length scores))

let predict t x =
  if Vec.dim x <> t.in_dim then invalid_arg "Dtm_multi.predict: feature dim mismatch";
  let batch = Mat.of_rows [| normalize_features t x |] in
  let h = Network.forward t.trunk ~train:false t.rng batch in
  let hidden = Network.hidden_after_forward t.trunk in
  let crash_logit = Mat.get (Network.forward t.crash_head ~train:false t.rng h) 0 0 in
  let perf = Network.forward t.perf_head ~train:false t.rng h in
  let normalized = Array.init t.n_metrics (fun k -> Mat.get perf 0 (2 * k)) in
  { crash_probability = Loss.sigmoid crash_logit;
    performances =
      Array.mapi (fun k mu -> (mu *. t.t_stds.(k)) +. t.t_means.(k)) normalized;
    normalized_performances = normalized;
    uncertainty = rbf_uncertainty t hidden }

let refit_normalizers t =
  let all = Array.of_list t.rows in
  for j = 0 to t.in_dim - 1 do
    let column = Array.map (fun r -> r.features.(j)) all in
    let m, s = Stat.zscore_params column in
    t.f_means.(j) <- m;
    t.f_stds.(j) <- s
  done;
  for k = 0 to t.n_metrics - 1 do
    let ok =
      Array.of_list
        (List.filter_map (fun r -> if r.crashed then None else Some r.targets.(k)) t.rows)
    in
    if Array.length ok > 0 then begin
      let m, s = Stat.zscore_params ok in
      t.t_means.(k) <- m;
      t.t_stds.(k) <- s
    end
  done

let train_batch t batch =
  let b = Array.length batch in
  let x = Mat.of_rows (Array.map (fun r -> normalize_features t r.features) batch) in
  let crash_labels = Array.map (fun r -> if r.crashed then 1. else 0.) batch in
  let mask = Array.map (fun r -> not r.crashed) batch in
  let h = Network.forward t.trunk ~train:true t.rng x in
  let hidden = Network.hidden_after_forward t.trunk in
  let crash_out = Network.forward t.crash_head ~train:true t.rng h in
  let perf_out = Network.forward t.perf_head ~train:true t.rng h in
  let _, dlogits =
    Loss.bce_with_logits ~pos_weight:t.cfg.Dtm.crash_pos_weight ~logits:(Mat.col crash_out 0)
      ~targets:crash_labels ()
  in
  (* One heteroscedastic loss per metric, gradients interleaved into the
     2k-wide head. *)
  let dperf = Mat.zeros b (2 * t.n_metrics) in
  for k = 0 to t.n_metrics - 1 do
    let mu = Mat.col perf_out (2 * k) and log_var = Mat.col perf_out ((2 * k) + 1) in
    let targets =
      Array.map (fun r -> (r.targets.(k) -. t.t_means.(k)) /. t.t_stds.(k)) batch
    in
    let _, (dmu, ds) = Loss.heteroscedastic ~mu ~log_var ~targets ~mask in
    for i = 0 to b - 1 do
      Mat.set dperf i (2 * k) dmu.(i);
      Mat.set dperf i ((2 * k) + 1) ds.(i)
    done
  done;
  let dcrash = Mat.init b 1 (fun i _ -> dlogits.(i)) in
  let dh = Mat.add (Network.backward t.crash_head dcrash) (Network.backward t.perf_head dperf) in
  Network.accumulate t.trunk dh;
  List.iteri
    (fun i z ->
      let rbf = t.rbf_layers.(i) in
      let _, dc = Loss.chamfer ~points:z ~centroids:(Layer.Rbf.centroid_matrix rbf) in
      match Layer.Rbf.params rbf with
      | [ c ] -> Mat.add_into ~dst:c.Layer.grad dc
      | _ -> assert false)
    hidden;
  Optimizer.step t.optimizer

(* ------------------------------------------------------------------ *)
(* Snapshots (transfer learning / persistent registry)                 *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  s_n_metrics : int;
  s_trunk : float array;
  s_crash : float array;
  s_perf : float array;
  s_centroids : float array array;
  s_norm : float array;  (* f_means @ f_stds @ t_means @ t_stds *)
}

let export t =
  { s_n_metrics = t.n_metrics;
    s_trunk = Network.save_weights t.trunk;
    s_crash = Network.save_weights t.crash_head;
    s_perf = Network.save_weights t.perf_head;
    s_centroids = Array.map (fun r -> Mat.to_array (Layer.Rbf.centroid_matrix r)) t.rbf_layers;
    s_norm =
      Array.concat
        [ Array.copy t.f_means; Array.copy t.f_stds; Array.copy t.t_means;
          Array.copy t.t_stds ] }

let import t s =
  if s.s_n_metrics <> t.n_metrics then invalid_arg "Dtm_multi.import: n_metrics mismatch";
  Network.load_weights t.trunk s.s_trunk;
  Network.load_weights t.crash_head s.s_crash;
  Network.load_weights t.perf_head s.s_perf;
  if Array.length s.s_centroids <> Array.length t.rbf_layers then
    invalid_arg "Dtm_multi.import: RBF layer count mismatch";
  Array.iteri
    (fun i data ->
      let c = Layer.Rbf.centroid_matrix t.rbf_layers.(i) in
      if Array.length data <> Mat.numel c then
        invalid_arg "Dtm_multi.import: centroid shape mismatch";
      Mat.blit_from_array data c)
    s.s_centroids;
  let d = t.in_dim and m = t.n_metrics in
  if Array.length s.s_norm <> (2 * d) + (2 * m) then
    invalid_arg "Dtm_multi.import: normalizer size mismatch";
  t.f_means <- Array.sub s.s_norm 0 d;
  t.f_stds <- Array.sub s.s_norm d d;
  t.t_means <- Array.sub s.s_norm (2 * d) m;
  t.t_stds <- Array.sub s.s_norm ((2 * d) + m) m

(* Same layout as Dtm's flat codec, with [n_metrics] as a fifth header
   int so the two kinds cannot be confused. *)
let snapshot_to_floats s =
  let sizes =
    [| Array.length s.s_trunk; Array.length s.s_crash; Array.length s.s_perf;
       Array.length s.s_centroids; s.s_n_metrics |]
  in
  let centroid_sizes = Array.map Array.length s.s_centroids in
  Array.concat
    ([ Array.map float_of_int sizes; Array.map float_of_int centroid_sizes; s.s_trunk;
       s.s_crash; s.s_perf ]
    @ Array.to_list s.s_centroids
    @ [ s.s_norm ])

let snapshot_of_floats flat =
  if Array.length flat < 5 then invalid_arg "Dtm_multi.snapshot_of_floats: truncated";
  let int_at i = int_of_float flat.(i) in
  let n_trunk = int_at 0
  and n_crash = int_at 1
  and n_perf = int_at 2
  and n_rbf = int_at 3
  and s_n_metrics = int_at 4 in
  let centroid_sizes = Array.init n_rbf (fun i -> int_of_float flat.(5 + i)) in
  let pos = ref (5 + n_rbf) in
  let take n =
    let out = Array.sub flat !pos n in
    pos := !pos + n;
    out
  in
  let s_trunk = take n_trunk in
  let s_crash = take n_crash in
  let s_perf = take n_perf in
  let s_centroids = Array.map take centroid_sizes in
  let s_norm = Array.sub flat !pos (Array.length flat - !pos) in
  { s_n_metrics; s_trunk; s_crash; s_perf; s_centroids; s_norm }

let train t ?(epochs = 1) ?(batch_size = 32) () =
  if t.count >= 2 then begin
    refit_normalizers t;
    let all = Array.of_list t.rows in
    for _ = 1 to epochs do
      Rng.shuffle t.rng all;
      let n = Array.length all in
      let rec batches start =
        if start < n then begin
          let len = Stdlib.min batch_size (n - start) in
          train_batch t (Array.sub all start len);
          batches (start + len)
        end
      in
      batches 0
    done
  end
