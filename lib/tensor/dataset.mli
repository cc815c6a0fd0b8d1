(** Supervised training sets of feature vectors with scalar targets.

    The DTM is trained incrementally on the search history: each evaluated
    configuration contributes one row (its feature encoding), a crash label,
    and — for non-crashing runs — a performance target.  This module holds
    those rows and produces normalized mini-batches. *)

type row = { features : Vec.t; target : float; crashed : bool }

type t

val create : unit -> t
val add : t -> Vec.t -> target:float -> crashed:bool -> unit
val size : t -> int
val rows : t -> row array
val row : t -> int -> row

val feature_dim : t -> int
(** 0 when the dataset is empty. *)

type normalizer = { means : Vec.t; stds : Vec.t; t_mean : float; t_std : float }
(** Per-feature z-score parameters plus target z-score parameters,
    fitted on the non-crashed rows' targets and all rows' features. *)

val fit_normalizer : t -> normalizer
(** @raise Invalid_argument on an empty dataset. *)

val normalize_features : normalizer -> Vec.t -> Vec.t
val normalize_target : normalizer -> float -> float
val denormalize_target : normalizer -> float -> float
val denormalize_std : normalizer -> float -> float
(** Rescales a predicted standard deviation back to target units. *)

val batches : t -> Rng.t -> batch_size:int -> row array list
(** Shuffled mini-batches covering the dataset once; the last batch may be
    smaller.  Empty dataset yields the empty list. *)

val split : t -> Rng.t -> train_fraction:float -> t * t
(** Random split into train/test subsets. *)
