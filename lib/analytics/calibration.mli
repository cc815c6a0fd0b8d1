(** Model-calibration diagnostics: how honest were the searcher's
    pre-evaluation beliefs?

    Computed over the (belief, outcome) pairs a ledger records:
    - {e crash calibration} — Brier score and reliability bins of the
      predicted crash probability [k̂] against the realized config-caused
      crash label.  Entries that were never evaluated
      ([Invalid_configuration], [Quarantined]) or failed for testbed
      reasons (transients, timeouts) carry no knowable label and are
      excluded;
    - {e value accuracy} — mean absolute error of the predicted value
      against the realized score, over successful evaluations (beliefs
      state values in metric-score units);
    - {e uncertainty honesty} — Spearman rank correlation between stated
      uncertainty [σ̂] and realized absolute error: a well-calibrated
      model is {e more} wrong where it {e says} it is less sure. *)

type reliability_bin = {
  lo : float;
  hi : float;  (** Predictions in [\[lo, hi)]; the last bin includes 1. *)
  count : int;
  mean_predicted : float;  (** NaN when the bin is empty. *)
  observed_rate : float;  (** Realized crash rate; NaN when empty. *)
}

type t = {
  crash_pairs : int;  (** Labelled (k̂, outcome) pairs available. *)
  brier : float option;  (** Mean squared error of k̂; [None] without pairs. *)
  reliability : reliability_bin array;  (** Empty without pairs. *)
  value_pairs : int;
  mae : float option;
  uncertainty_pairs : int;
  uncertainty_spearman : float option;
      (** [None] with fewer than two pairs (rank correlation undefined). *)
}

val of_series : ?bins:int -> Series.t -> t
(** [bins] defaults to 10. *)

(** {1 Pieces} — exposed for unit tests and custom reports. *)

val crash_pairs : Series.t -> (float * bool) list
(** Test hook: test_analytics checks the pairing on a hand-built series; {!of_series} is
    built on it. *)

val reliability : ?bins:int -> (float * bool) list -> reliability_bin array
(** Equal-width bins over [\[0, 1\]]; out-of-range predictions clamp to
    Test hook: test_analytics checks the binning on hand-made pairs; {!of_series} is
    built on it.
    the edge bins.  @raise Invalid_argument if [bins <= 0]. *)

val uncertainty_spearman : (float * float) list -> float option
(** Test hook: test_analytics checks it on hand-made pairs; {!of_series} is built on it. *)
