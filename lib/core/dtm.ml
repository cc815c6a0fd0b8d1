module Dataset = Wayfinder_tensor.Dataset
module Vec = Wayfinder_tensor.Vec
module Mat = Wayfinder_tensor.Mat
module Rng = Wayfinder_tensor.Rng
module Layer = Wayfinder_nn.Layer
module Loss = Wayfinder_nn.Loss
module Network = Wayfinder_nn.Network
module Optimizer = Wayfinder_nn.Optimizer

type config = {
  hidden : int list;
  dropout : float;
  rbf_centroids : int;
  rbf_gamma : float;
  learning_rate : float;
  weight_decay : float;
  crash_pos_weight : float;
}

let default_config =
  { hidden = [ 48; 24 ]; dropout = 0.05; rbf_centroids = 16; rbf_gamma = 1.0;
    learning_rate = 1e-3; weight_decay = 5.0; crash_pos_weight = 3.0 }

type t = {
  cfg : config;
  rng : Rng.t;
  in_dim : int;
  metrics : int;
  trunk : Network.t;
  crash_head : Network.t;
  perf_head : Network.t;  (* 2 outputs per metric: (mu_m, s_m) *)
  rbf_layers : Layer.Rbf.t array;  (* one per trunk hidden layer *)
  optimizer : Optimizer.t;
  mutable normalizer : Dataset.normalizer option;
  mutable feature_stats_frozen : bool;
      (* Set on import: the donor's feature statistics are kept (the
         candidate generator is the same), only target statistics are
         refitted — otherwise a handful of fresh rows would scramble the
         input scaling the transferred weights expect. *)
}

let trunk_spec cfg =
  List.concat_map (fun h -> [ `Dense h; `Relu; `Dropout cfg.dropout ]) cfg.hidden

let validate_config config =
  if config.hidden = [] then invalid_arg "Dtm.create: empty hidden spec";
  if List.exists (fun h -> h <= 0) config.hidden then
    invalid_arg "Dtm.create: hidden layer widths must be positive";
  if config.rbf_centroids <= 0 then invalid_arg "Dtm.create: rbf_centroids must be positive";
  if config.dropout < 0. || config.dropout >= 1. then
    invalid_arg "Dtm.create: dropout must be in [0, 1)";
  if not (config.learning_rate > 0.) then
    invalid_arg "Dtm.create: learning_rate must be positive"

let create ?(config = default_config) ?(metrics = 1) rng ~in_dim =
  validate_config config;
  if in_dim <= 0 then invalid_arg "Dtm.create: in_dim must be positive";
  if metrics < 1 then invalid_arg "Dtm.create: metrics must be positive";
  let trunk = Network.create rng ~in_dim (trunk_spec config) in
  let last = List.nth config.hidden (List.length config.hidden - 1) in
  let crash_head = Network.create rng ~in_dim:last [ `Dense 1 ] in
  let perf_head = Network.create rng ~in_dim:last [ `Dense (2 * metrics) ] in
  let rbf_layers =
    (* The squared distance in eq. 1 grows linearly with the layer width,
       so the smoothing parameter is scaled by sqrt(width) to keep
       activations informative at any dimensionality. *)
    Array.of_list
      (List.map
         (fun h ->
           Layer.Rbf.create rng ~in_dim:h ~centroids:config.rbf_centroids
             ~gamma:(config.rbf_gamma *. sqrt (float_of_int h)))
         config.hidden)
  in
  let params =
    Network.params trunk @ Network.params crash_head @ Network.params perf_head
    @ List.concat_map Layer.Rbf.params (Array.to_list rbf_layers)
  in
  { cfg = config;
    rng = Rng.split rng;
    in_dim;
    metrics;
    trunk;
    crash_head;
    perf_head;
    rbf_layers;
    optimizer = Optimizer.adam ~lr:config.learning_rate ~weight_decay:config.weight_decay params;
    normalizer = None;
    feature_stats_frozen = false }

let normalizer t =
  match t.normalizer with
  | Some n -> n
  | None ->
    { Dataset.means = Vec.zeros t.in_dim;
      stds = Vec.create t.in_dim 1.;
      t_means = Array.make t.metrics 0.;
      t_stds = Array.make t.metrics 1. }

(* Features that were constant in the training data have a degenerate
   (epsilon) standard deviation; a fresh sample differing there would map
   to an astronomically large z-score and blow the trunk up.  Clamping the
   normalised inputs keeps the model total over the whole space — the RBF
   branch still flags such samples as maximally uncertain. *)
let z_clip = 6.

(* Row i of the result is [x_i] z-scored and clipped to ±z_clip, with
   [Stdlib.max (-.z_clip) (Stdlib.min z_clip z)]'s comparisons (NaN stays
   NaN). *)
let normalize_rows nz xs =
  let n = Array.length xs and d = Array.length nz.Dataset.means in
  let m = Mat.zeros n d in
  let md : Mat.buffer = m.Mat.data and means = nz.Dataset.means and stds = nz.Dataset.stds in
  Array.iteri
    (fun i (x : Vec.t) ->
      for j = 0 to d - 1 do
        let z = (x.(j) -. means.(j)) /. stds.(j) in
        let z = if z_clip <= z then z_clip else z in
        Bigarray.Array1.unsafe_set md ((i * d) + j) (if -.z_clip >= z then -.z_clip else z)
      done)
    xs;
  m

(* ------------------------------------------------------------------ *)
(* Prediction                                                          *)
(* ------------------------------------------------------------------ *)

type prediction = {
  crash_probability : float;
  performances : float array;
  normalized_performances : float array;
  aleatoric_stds : float array;
  uncertainty : float;
}

(* One forward pass over the whole batch.  Dense rows are independent dot
   products, ReLU is elementwise, dropout is identity at inference and the
   RBF activations are computed row by row, so element [i] of the result
   is the same whatever else is in the batch — [predict] is the batch of
   one, and a pool scores as one large matmul per layer (which the
   ambient domain pool can then split across cores). *)
let predict_batch t xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    Array.iter
      (fun x ->
        if Vec.dim x <> t.in_dim then invalid_arg "Dtm.predict_batch: feature dimension mismatch")
      xs;
    let nz = normalizer t in
    let h = Network.forward t.trunk ~train:false t.rng (normalize_rows nz xs) in
    let hidden = Network.hidden_after_forward t.trunk in
    let crash_out = Network.forward t.crash_head ~train:false t.rng h in
    let perf_out = Network.forward t.perf_head ~train:false t.rng h in
    (* The dense activations the RBF branch consumes: the trunk records
       one matrix per dense layer during the forward pass. *)
    let phis =
      Array.mapi (fun li z -> Layer.Rbf.forward t.rbf_layers.(li) z) (Array.of_list hidden)
    in
    let n_layers = float_of_int (Array.length phis) in
    let crash : Mat.buffer = crash_out.Mat.data and perf : Mat.buffer = perf_out.Mat.data in
    let k = t.metrics in
    Array.init n (fun i ->
        let crash_logit = Bigarray.Array1.unsafe_get crash i in
        let mus = Array.init k (fun m -> Bigarray.Array1.unsafe_get perf ((2 * ((i * k) + m))))
        and log_vars =
          Array.init k (fun m -> Bigarray.Array1.unsafe_get perf ((2 * ((i * k) + m)) + 1))
        in
        let acc = ref 0. in
        Array.iter
          (fun (phi : Mat.t) ->
            let pd : Mat.buffer = phi.Mat.data and m = phi.Mat.cols in
            let best = ref 0. in
            for k = 0 to m - 1 do
              let v = Bigarray.Array1.unsafe_get pd ((i * m) + k) in
              if v > !best then best := v
            done;
            acc := !acc +. !best)
          phis;
        { crash_probability = Loss.sigmoid crash_logit;
          performances = Array.mapi (fun metric mu -> Dataset.denormalize_target nz ~metric mu) mus;
          normalized_performances = mus;
          aleatoric_stds =
            Array.mapi
              (fun metric s -> Dataset.denormalize_std nz ~metric (sqrt (exp (min 20. s))))
              log_vars;
          uncertainty = 1. -. (!acc /. n_layers) })
  end

let predict t x =
  if Vec.dim x <> t.in_dim then invalid_arg "Dtm.predict: feature dimension mismatch";
  (predict_batch t [| x |]).(0)

(* ------------------------------------------------------------------ *)
(* Training                                                            *)
(* ------------------------------------------------------------------ *)

type losses = { cce : float; reg : float; chamfer : float }

let zero_losses = { cce = 0.; reg = 0.; chamfer = 0. }

let train_batch t nz batch =
  let b = Array.length batch in
  let x = normalize_rows nz (Array.map (fun r -> r.Dataset.features) batch) in
  let crash_labels = Array.map (fun r -> if r.Dataset.crashed then 1. else 0.) batch in
  let mask = Array.map (fun r -> not r.Dataset.crashed) batch in
  (* Forward. *)
  let h = Network.forward t.trunk ~train:true t.rng x in
  let hidden = Network.hidden_after_forward t.trunk in
  let crash_out = Network.forward t.crash_head ~train:true t.rng h in
  let perf_out = Network.forward t.perf_head ~train:true t.rng h in
  let logits = Mat.col crash_out 0 in
  (* Losses and output gradients: one heteroscedastic loss per regression
     pair, their gradients interleaved into the 2k-wide head, L_Reg their
     sum from pair 0. *)
  let l_cce, dlogits =
    Loss.bce_with_logits ~pos_weight:t.cfg.crash_pos_weight ~logits ~targets:crash_labels ()
  in
  let regs =
    Array.init t.metrics (fun metric ->
        let targets =
          Array.map (fun r -> Dataset.normalize_target nz ~metric r.Dataset.targets.(metric)) batch
        in
        Loss.heteroscedastic ~mu:(Mat.col perf_out (2 * metric))
          ~log_var:(Mat.col perf_out ((2 * metric) + 1))
          ~targets ~mask)
  in
  let l_reg = ref (fst regs.(0)) in
  for metric = 1 to t.metrics - 1 do
    l_reg := !l_reg +. fst regs.(metric)
  done;
  (* Backward through the heads into the trunk's parameters. *)
  let dcrash = Mat.init b 1 (fun i _ -> dlogits.(i)) in
  let dperf =
    Mat.init b (2 * t.metrics) (fun i j ->
        let dmu, ds = snd regs.(j / 2) in
        if j land 1 = 0 then dmu.(i) else ds.(i))
  in
  let dh = Mat.add (Network.backward t.crash_head dcrash) (Network.backward t.perf_head dperf) in
  Network.accumulate t.trunk dh;
  (* Chamfer regularisation fits the RBF centroids to the trunk's
     activations; its gradient targets only the centroids (the uncertainty
     branch does not back-propagate into the prediction branch). *)
  let l_cham = ref 0. in
  List.iteri
    (fun i z ->
      let rbf = t.rbf_layers.(i) in
      let loss, dc = Loss.chamfer ~points:z ~centroids:(Layer.Rbf.centroid_matrix rbf) in
      l_cham := !l_cham +. loss;
      match Layer.Rbf.params rbf with
      | [ c ] -> Mat.add_into ~dst:c.Layer.grad dc
      | _ -> assert false)
    hidden;
  Optimizer.step t.optimizer;
  { cce = l_cce; reg = !l_reg; chamfer = !l_cham }

let train t ?(epochs = 3) ?(batch_size = 32) ?on_epoch dataset =
  if Dataset.size dataset = 0 then zero_losses
  else begin
    if Dataset.target_dim dataset <> t.metrics then
      invalid_arg "Dtm.train: dataset target count differs from the model's metrics";
    let fresh = Dataset.fit_normalizer dataset in
    let nz =
      match (t.feature_stats_frozen, t.normalizer) with
      | true, Some donor ->
        { donor with Dataset.t_means = fresh.Dataset.t_means; t_stds = fresh.Dataset.t_stds }
      | true, None | false, (Some _ | None) -> fresh
    in
    t.normalizer <- Some nz;
    let last = ref zero_losses in
    for epoch = 1 to epochs do
      let batches = Dataset.batches dataset t.rng ~batch_size in
      let n = List.length batches in
      let acc = ref zero_losses in
      List.iter
        (fun batch ->
          let l = train_batch t nz batch in
          acc :=
            { cce = !acc.cce +. l.cce; reg = !acc.reg +. l.reg; chamfer = !acc.chamfer +. l.chamfer })
        batches;
      let scale = 1. /. float_of_int (max 1 n) in
      last := { cce = !acc.cce *. scale; reg = !acc.reg *. scale; chamfer = !acc.chamfer *. scale };
      match on_epoch with Some f -> f epoch !last | None -> ()
    done;
    !last
  end

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

type accuracy = { failure_accuracy : float; run_accuracy : float; normalized_mae : float }

let evaluate ?(crash_threshold = 0.3) t dataset =
  let rows = Dataset.rows dataset in
  let crash_hits = ref 0 and crash_total = ref 0 in
  let run_hits = ref 0 and run_total = ref 0 in
  let preds = ref [] and targets = ref [] in
  Array.iter
    (fun r ->
      let p = predict t r.Dataset.features in
      let predicted_crash = p.crash_probability > crash_threshold in
      if r.Dataset.crashed then begin
        incr crash_total;
        if predicted_crash then incr crash_hits
      end
      else begin
        incr run_total;
        if not predicted_crash then incr run_hits;
        preds := p.performances.(0) :: !preds;
        targets := r.Dataset.targets.(0) :: !targets
      end)
    rows;
  let ratio hits total = if total = 0 then 0. else float_of_int hits /. float_of_int total in
  { failure_accuracy = ratio !crash_hits !crash_total;
    run_accuracy = ratio !run_hits !run_total;
    normalized_mae =
      Wayfinder_tensor.Stat.normalized_mae (Array.of_list !preds) (Array.of_list !targets) }

(* ------------------------------------------------------------------ *)
(* Sensitivity                                                         *)
(* ------------------------------------------------------------------ *)

let max_sensitivity_rows = 48

let feature_sensitivity t dataset =
  let rows = Dataset.rows dataset in
  let n = Array.length rows in
  if n = 0 then Array.make t.in_dim 0.
  else begin
    let sample =
      if n <= max_sensitivity_rows then rows
      else Array.init max_sensitivity_rows (fun i -> rows.(i * n / max_sensitivity_rows))
    in
    let k = Array.length sample in
    Array.init t.in_dim (fun j ->
        let column = Array.map (fun r -> r.Dataset.features.(j)) rows in
        let lo = Wayfinder_tensor.Stat.quantile column 0.1 in
        let hi = Wayfinder_tensor.Stat.quantile column 0.9 in
        if hi -. lo < 1e-12 then 0.
        else begin
          (* Rows 2r and 2r+1 are sample row r with feature j at hi, lo. *)
          let moved =
            Array.init (2 * k) (fun p ->
                let v = Vec.copy sample.(p / 2).Dataset.features in
                v.(j) <- (if p land 1 = 0 then hi else lo);
                v)
          in
          let preds = predict_batch t moved in
          let acc = ref 0. in
          for r = 0 to k - 1 do
            acc :=
              !acc +. (preds.(2 * r).performances.(0) -. preds.((2 * r) + 1).performances.(0))
          done;
          !acc /. float_of_int k
        end)
  end

(* ------------------------------------------------------------------ *)
(* Snapshots (transfer learning)                                       *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  s_trunk : float array;
  s_crash : float array;
  s_perf : float array;
  s_centroids : float array array;
  s_norm : float array;  (* means @ stds @ t_means @ t_stds *)
}

let export t =
  let nz = normalizer t in
  { s_trunk = Network.save_weights t.trunk;
    s_crash = Network.save_weights t.crash_head;
    s_perf = Network.save_weights t.perf_head;
    s_centroids = Array.map (fun r -> Mat.to_array (Layer.Rbf.centroid_matrix r)) t.rbf_layers;
    s_norm =
      Array.concat [ nz.Dataset.means; nz.Dataset.stds; nz.Dataset.t_means; nz.Dataset.t_stds ] }

let import t s =
  Network.load_weights t.trunk s.s_trunk;
  Network.load_weights t.crash_head s.s_crash;
  Network.load_weights t.perf_head s.s_perf;
  if Array.length s.s_centroids <> Array.length t.rbf_layers then
    invalid_arg "Dtm.import: RBF layer count mismatch";
  Array.iteri
    (fun i data ->
      let c = Layer.Rbf.centroid_matrix t.rbf_layers.(i) in
      if Array.length data <> Mat.numel c then invalid_arg "Dtm.import: centroid shape mismatch";
      Mat.blit_from_array data c)
    s.s_centroids;
  let d = t.in_dim and k = t.metrics in
  if Array.length s.s_norm <> (2 * d) + (2 * k) then
    invalid_arg "Dtm.import: normalizer size mismatch";
  t.normalizer <-
    Some
      { Dataset.means = Array.sub s.s_norm 0 d;
        stds = Array.sub s.s_norm d d;
        t_means = Array.sub s.s_norm (2 * d) k;
        t_stds = Array.sub s.s_norm ((2 * d) + k) k };
  t.feature_stats_frozen <- true

let snapshot_to_floats s =
  let sizes =
    [| Array.length s.s_trunk; Array.length s.s_crash; Array.length s.s_perf;
       Array.length s.s_centroids |]
  in
  let centroid_sizes = Array.map Array.length s.s_centroids in
  Array.concat
    ([ Array.map float_of_int sizes; Array.map float_of_int centroid_sizes; s.s_trunk; s.s_crash;
       s.s_perf ]
    @ Array.to_list s.s_centroids
    @ [ s.s_norm ])

let snapshot_of_floats flat =
  if Array.length flat < 4 then invalid_arg "Dtm.snapshot_of_floats: truncated";
  let int_at i = int_of_float flat.(i) in
  let n_trunk = int_at 0 and n_crash = int_at 1 and n_perf = int_at 2 and n_rbf = int_at 3 in
  let centroid_sizes = Array.init n_rbf (fun i -> int_of_float flat.(4 + i)) in
  let pos = ref (4 + n_rbf) in
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
  { s_trunk; s_crash; s_perf; s_centroids; s_norm }
