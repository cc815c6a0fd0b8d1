(** Descriptive statistics and normalization helpers.

    Used throughout Wayfinder: z-score normalization of DTM inputs (§3.2 of
    the paper prescribes z-scored features with RBF smoothing γ = 0.1),
    min-max normalization for the throughput/memory score of §4.4
    (eq. 4), and the smoothing applied to the published curves. *)

val mean : float array -> float

val std : float array -> float
(** Test hook: test_tensor checks it. *)

val min : float array -> float
val max : float array -> float
val median : float array -> float
val mad : float array -> float
(** Median absolute deviation from the median — the robust spread estimate
    the platform's repeated-measurement outlier rejection uses.
    @raise Invalid_argument on empty input. *)

val quantile : float array -> float -> float
(** [quantile xs q] with [q] in [\[0, 1\]], linear interpolation.  Sorts
    with [Float.compare] (total with NaN); NaN propagates — if any sample
    is NaN the result is NaN, never a silently corrupted order statistic
    (and the same holds for {!median} and {!mad}, which derive from it).
    @raise Invalid_argument on empty input or [q] outside [\[0, 1\]]. *)

val quantiles : float array -> float array -> float array
(** [quantiles xs qs] is [Array.map (quantile xs) qs], bit for bit, from
    one sorted copy of [xs].
    @raise Invalid_argument on empty [xs] or any [q] outside
    [\[0, 1\]]. *)

val epsilon_std : float
(** The floor of every z-score standard deviation, [1e-9]. *)

val zscore_params : float array -> float * float
(** [(mean, std)] with [std] floored at {!epsilon_std} so that dividing
    is always safe. *)

val zscore : mean:float -> std:float -> float -> float

val min_max_norm : lo:float -> hi:float -> float -> float
(** The paper's [mXNorm]: maps [lo] to 0 and [hi] to 1; constant ranges map
    to 0.5. *)

val moving_average : int -> float array -> float array
(** [moving_average w xs] smooths with a centred window of half-width [w]
    (the "smoothed for readability" treatment of the paper's figures).
    Returns an array of the same length. *)

val pearson : float array -> float array -> float
(** Pearson correlation coefficient; 0 when either input is constant. *)

val spearman : float array -> float array -> float
(** Spearman rank correlation: Pearson over {!ranks}.  0 when either input
    is constant (or empty); NaN if any sample is NaN (the NaN policy —
    propagate, never silently rank).
    @raise Invalid_argument on length mismatch. *)

val normalized_mae : float array -> float array -> float
(** MAE divided by the target range ([max - min]); the paper's Table 3
    metric. *)
