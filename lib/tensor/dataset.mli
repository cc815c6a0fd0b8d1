(** Supervised training sets of feature vectors with per-metric targets.

    The DTM is trained incrementally on the search history: each evaluated
    configuration contributes one row (its feature encoding), a crash label,
    and — for non-crashing runs — one performance target per metric.  This
    module holds those rows and produces normalized mini-batches. *)

type row = { features : Vec.t; targets : float array; crashed : bool }
(** [targets] holds one higher-is-better score per metric (ignored when
    [crashed]); every row of a dataset has the same count. *)

type t

val create : unit -> t

val add : t -> Vec.t -> target:float -> crashed:bool -> unit
(** The one-metric row: [add_targets ~targets:[| target |]]. *)

val add_targets : t -> Vec.t -> targets:float array -> crashed:bool -> unit
(** @raise Invalid_argument when [targets] is empty or its length differs
    from the earlier rows'. *)

val size : t -> int
val rows : t -> row array
val row : t -> int -> row
(** Test hook: test_tensor reads rows back with it. *)

val target_dim : t -> int
(** Targets per row; 0 when the dataset is empty. *)

type normalizer = {
  means : Vec.t;
  stds : Vec.t;
  t_means : float array;
  t_stds : float array;
}
(** Per-feature z-score parameters plus per-metric target z-score
    parameters, fitted on the non-crashed rows' targets and all rows'
    features; every metric gets [(0, 1)] when every row crashed. *)

val fit_normalizer : t -> normalizer
(** @raise Invalid_argument on an empty dataset. *)

val normalize_target : normalizer -> metric:int -> float -> float
val denormalize_target : normalizer -> metric:int -> float -> float
val denormalize_std : normalizer -> metric:int -> float -> float
(** Rescales a predicted standard deviation back to target units. *)

val batches : t -> Rng.t -> batch_size:int -> row array list
(** Shuffled mini-batches covering the dataset once; the last batch may be
    smaller.  Empty dataset yields the empty list. *)
