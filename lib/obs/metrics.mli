(** Aggregated metrics: named counters and histograms.

    The in-process side of the observability layer: cheap to update on
    every driver iteration, summarised once at the end of a run.
    Histograms keep exact count/sum/min/max plus power-of-two buckets, so
    quantiles are approximate (within a factor of 2) but memory per
    histogram is constant — thousands of VM boots cost nothing. *)

type t
(** Mutable registry. *)

val min_exp : int
(** Smallest bucket exponent: bucket 0 catches samples [<= 2^min_exp]
    (including zero, negatives, and NaN).
    Test hook: test_obs checks the histogram bucket layout with it. *)

val max_exp : int
(** Largest finite bucket exponent; the last bucket catches everything
    above [2^max_exp].
    Test hook: test_obs checks the histogram bucket layout with it. *)

val n_buckets : int
(** Total bucket count, [max_exp - min_exp + 2].
    Test hook: test_obs checks the histogram bucket layout with it. *)

val bucket_index : float -> int
(** The bucket a sample lands in.  Non-positive values and NaN land in
    bucket 0.
    Test hook: test_obs checks the histogram bucket layout with it. *)

val bucket_bound : int -> float
(** Inclusive upper bound of a bucket; [infinity] for the last.
    Test hook: test_obs checks the histogram bucket layout with it. *)

val create : unit -> t

val incr : t -> ?by:float -> string -> unit
(** Add [by] (default 1.0) to a counter, creating it at 0. *)

val observe : t -> string -> float -> unit
(** Record one histogram sample. *)

type histogram = {
  count : int;
  sum : float;
  min : float;  (** [infinity] when [count = 0]. *)
  max : float;  (** [neg_infinity] when [count = 0]. *)
  buckets : (float * int) array;
      (** Non-empty buckets as (inclusive upper bound, samples) pairs,
          ascending.  Bounds are powers of two; samples [<= 0] land in the
          first bucket. *)
}

val mean : histogram -> float
(** [sum / count]; 0 when empty. *)

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0, 1]: linearly interpolated within the
    power-of-two bucket containing the [q]-th sample (assuming samples
    spread evenly across the bucket), clamped to [[h.min, h.max]].  The
    estimate and the exact quantile always share a bucket, so the error is
    bounded by one bucket width (a factor of 2 for positive in-range
    samples).  0 when empty. *)

type snapshot = {
  counters : (string * float) list;  (** Sorted by name. *)
  histograms : (string * histogram) list;  (** Sorted by name. *)
}

val snapshot : t -> snapshot
(** An immutable copy of the current state; the registry keeps counting. *)

val counter : snapshot -> string -> float
(** Counter value, 0 if absent. *)

val histogram : snapshot -> string -> histogram option

val sum : snapshot -> string -> float
(** Histogram sum, 0 if absent — the total virtual/wall seconds of a
    span-backed histogram. *)
