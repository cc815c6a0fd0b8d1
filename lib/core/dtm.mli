(** The DeepTune Model (DTM, §3.2, Figure 4).

    A multitask neural network [F(x) → (k̂, ŷ, σ̂)] mapping a configuration's
    feature encoding to its crash probability, expected performance, and
    prediction uncertainty:

    - the {e prediction branch} [F^p] is a dense/ReLU/dropout trunk with two
      heads — a crash logit trained with the cross-entropy loss [L_CCE], and
      a heteroscedastic regression head (mean and log-variance) trained with
      the Kendall–Gal loss [L_Reg];
    - the {e uncertainty branch} [F^u] is a stack of Gaussian RBF layers
      (eq. 1), one parallel to each trunk layer, whose centroids are fitted
      to the trunk's activations by the Chamfer loss [L_Cham]; an input far
      from every centroid activates weakly, so
      [σ̂ = 1 − mean_layers (max_k φ_k)] is high exactly on outliers.

    Features and performance targets are z-score normalised from the
    training set.  Training is incremental: each {!train} call makes a few
    passes over the current history, so per-iteration cost stays linear in
    the history size (the O(n) curve of Figure 7).

    {b Several metrics.}  §3.2 extends the model to k metrics "by adding
    additional output layers to F^p and F^u": the regression head carries
    one (mean, log-variance) pair per metric, while the trunk, the crash
    head and the RBF branch are shared — a configuration either runs or
    it does not, and novelty is metric-independent.  [L_Reg] is the sum
    of the per-pair losses.  With one metric (the default) this is the
    single-metric model bit for bit. *)

module Dataset = Wayfinder_tensor.Dataset
module Vec = Wayfinder_tensor.Vec
module Rng = Wayfinder_tensor.Rng

type config = {
  hidden : int list;  (** Trunk widths, default [\[48; 24\]]. *)
  dropout : float;  (** Default 0.05. *)
  rbf_centroids : int;  (** Per RBF layer, default 16. *)
  rbf_gamma : float;  (** Per-dimension smoothing over trunk activations,
                          default 1.0 (the layer scales it by the square
                          root of its width; the paper's 0.1 applies to
                          z-scored raw features). *)
  learning_rate : float;  (** Adam, default 1e-3. *)
  weight_decay : float;  (** Decoupled (AdamW) decay, default 5.0 — the
                             search trains on few, high-dimensional samples
                             and overfits without it. *)
  crash_pos_weight : float;  (** Weight of crash samples in [L_CCE]
                                 (default 3.0): recall-heavy crash
                                 prediction, matching §4.3's reliance on
                                 failure accuracy over run accuracy. *)
}

val default_config : config

type t

val create : ?config:config -> ?metrics:int -> Rng.t -> in_dim:int -> t
(** [metrics] (default 1) is the number of regression pairs.
    @raise Invalid_argument if [in_dim <= 0], [metrics < 1] or the config
    is malformed: empty or non-positive [hidden] widths,
    [rbf_centroids <= 0], [dropout] outside [0, 1), or a non-positive
    [learning_rate]. *)

type prediction = {
  crash_probability : float;  (** k̂ ∈ (0, 1). *)
  performances : float array;  (** ŷ per metric, de-normalised to
      metric-score units. *)
  normalized_performances : float array;  (** ŷ per metric in the model's
      z-score units — the scale candidate ranking happens in. *)
  aleatoric_stds : float array;  (** √exp(s) per metric from the
      regression head, de-normalised. *)
  uncertainty : float;  (** σ̂ ∈ \[0, 1\] from the RBF branch, shared. *)
}

val predict : t -> Vec.t -> prediction
(** Raw (un-normalised) feature vector in, prediction out.  Before any
    {!train} call the model returns its untrained outputs. *)

val predict_batch : t -> Vec.t array -> prediction array
(** One forward pass over the whole batch.  Element [i] is bitwise
    identical to [predict t xs.(i)]; the batch form exists so candidate
    pools score as one large matmul (which the ambient {!Domain_pool} can
    split across cores) instead of many small ones. *)

type losses = { cce : float; reg : float; chamfer : float }

val train :
  t ->
  ?epochs:int ->
  ?batch_size:int ->
  ?on_epoch:(int -> losses -> unit) ->
  Dataset.t ->
  losses
(** Re-fit the normaliser on the dataset and run [epochs] (default 3)
    passes of mini-batch Adam (batch 32).  Returns the final epoch's mean
    loss components [L = L_CCE + L_Reg + L_Cham]; [on_epoch] (1-based) is
    called with each epoch's mean losses as they complete — the
    observability layer streams them as [deeptune.loss.*] samples.  Empty
    datasets are a no-op returning zeros.
    @raise Invalid_argument when the dataset's {!Dataset.target_dim} is
    not the model's [metrics]. *)

(** {1 Evaluation (Table 3)} *)

type accuracy = {
  failure_accuracy : float;  (** Recall on crashing configurations. *)
  run_accuracy : float;  (** Recall on successful configurations. *)
  normalized_mae : float;  (** Performance-prediction MAE / target range. *)
}

val evaluate : ?crash_threshold:float -> t -> Dataset.t -> accuracy
(** [crash_threshold] (default 0.3): predict "crash" when [k̂] exceeds it.
    The low threshold reflects the paper's use of the model (§4.3: failure
    accuracy is trusted, run accuracy is not).  The MAE reads metric 0. *)

(** {1 Model introspection (§4.1 High-Impact parameters)} *)

val feature_sensitivity : t -> Dataset.t -> float array
(** Signed per-feature impact on predicted performance: the change in [ŷ]
    when feature [j] moves from its observed 10th to its 90th percentile,
    averaged over the dataset rows.  Positive = raising the feature raises
    predicted performance.  Reads metric 0. *)

(** {1 Transfer learning (§3.3)} *)

type snapshot

val export : t -> snapshot
(** Weights, RBF centroids and the normaliser, laid out as
    [means @ stds @ t_means @ t_stds] — a one-metric snapshot has the
    single-metric layout. *)

val import : t -> snapshot -> unit
(** @raise Invalid_argument on architecture mismatch, including a
    snapshot of a model with a different number of metrics. *)

val snapshot_to_floats : snapshot -> float array
val snapshot_of_floats : float array -> snapshot
