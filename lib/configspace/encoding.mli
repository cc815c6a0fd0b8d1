(** Feature encoding of configurations for learning-based search.

    The DTM consumes configurations as real vectors [x = (x^k, x^n)]
    (§3.2): categorical parameters are one-hot encoded, booleans and
    tristates map to [{0,1}] / [{0, ½, 1}], and integers are scaled into
    [\[0, 1\]] (logarithmically for wide, log-scaled ranges).  The encoding
    is fixed per space, so encoded vectors are comparable across the whole
    search history — as required by the dissimilarity term of eq. (2). *)

type t

val create : Space.t -> t

val dim : t -> int
(** Number of features. *)

val encode : t -> Space.configuration -> Wayfinder_tensor.Vec.t
(** A fresh vector holding {!encode_into}'s result. *)

val encode_into : t -> Space.configuration -> Wayfinder_tensor.Vec.t -> unit
(** [encode_into t config out] overwrites every element of [out] with
    [config]'s encoding, bitwise what {!encode} returns, whatever [out]
    held before.
    @raise Invalid_argument if [config] is not of the space's size or
    [out] is not {!dim} long. *)

val param_importance : t -> float array -> (string * float) array
(** Aggregate per-feature scores into per-parameter scores (sum over a
    parameter's features), sorted descending.
    @raise Invalid_argument if the score vector has the wrong length. *)

val distance : t -> Space.configuration -> Space.configuration -> float
(** Euclidean distance between encodings.
    Test hook: only test_configspace calls it; no searcher measures encoded distances. *)
