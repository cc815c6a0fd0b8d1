(** CART regression trees.

    Building block of {!Forest}; used by the cross-similarity analysis of
    §3.3 (Figure 5), which ranks configuration options by their importance
    in predicting application performance. *)

module Mat = Wayfinder_tensor.Mat
module Vec = Wayfinder_tensor.Vec
module Rng = Wayfinder_tensor.Rng

type t

val fit :
  ?max_depth:int ->
  ?min_samples:int ->
  ?features_per_split:int ->
  Rng.t ->
  Mat.t ->
  Vec.t ->
  t
(** [fit rng x y] grows a tree on rows of [x] against targets [y].
    [max_depth] defaults to 12, [min_samples] (minimum rows to attempt a
    split) to 4, [features_per_split] to all features.  Splits minimise the
    children's summed squared error; candidate thresholds are midpoints of
    up to 16 quantiles per feature.
    @raise Invalid_argument on empty data or size mismatch. *)

val predict : t -> Vec.t -> float
val depth : t -> int
(** Test hook: test_forest checks the [max_depth] bound and that a constant target fits
    one leaf. *)

val accumulate_importance : t -> float array -> unit
(** Add each split's impurity decrease (weighted by the fraction of samples
    reaching the split) to the per-feature accumulator.
    @raise Invalid_argument if the accumulator is shorter than the tree's
    feature count. *)
