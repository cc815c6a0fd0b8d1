(** Random forests (bagged {!Tree}s) with impurity-based feature
    importance [Breiman 2001], reference [17] of the paper.

    §3.3 uses the per-feature importance vectors of models trained on 2 000
    random configurations per application to build the cross-similarity
    matrix of Figure 5. *)

module Mat = Wayfinder_tensor.Mat
module Vec = Wayfinder_tensor.Vec
module Rng = Wayfinder_tensor.Rng

type t

val fit :
  ?n_trees:int ->
  ?max_depth:int ->
  ?min_samples:int ->
  ?features_per_split:int option ->
  Rng.t ->
  Mat.t ->
  Vec.t ->
  t
(** Defaults: 64 trees, depth 12, [features_per_split = Some (d/3)]
    (regression heuristic), bootstrap resampling per tree. *)

val importance : t -> float array
(** Per-feature impurity-decrease importance, normalised to sum to 1
    (all-zero if no split was ever made). *)

val r_squared : t -> Mat.t -> Vec.t -> float
(** Coefficient of determination on a (held-out) set. *)

val importance_similarity : float array -> float array -> float
(** The Figure 5 cross-similarity: importance vectors are compared with a
    similarity in [\[0, 1\]] derived from their Euclidean distance,
    [1 / (1 + ‖a - b‖₂)], after normalising both to unit sum.
    @raise Invalid_argument on length mismatch. *)
