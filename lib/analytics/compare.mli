(** The [wayfinder compare] table: several runs' best-so-far curves
    aligned on shared sample budgets, with a winner per budget.

    Budgets are clipped to the shortest run so every column compares the
    runs at a budget they all actually spent; the winner at a budget is
    the run whose running best is ahead under the (shared) metric. *)

module Metric = Wayfinder_platform.Metric

type t = {
  metric : Metric.t;
  labels : string array;
  budgets : int array;
  best_at : float array array;
      (** [best_at.(run).(budget_i)] — running best raw value after
          [budgets.(budget_i)] samples; NaN before the first success. *)
  winners : int option array;
      (** Per budget: index into [labels]; [None] when no run has
          succeeded yet. *)
  finals : (int * float) option array;
      (** Per run: (samples to its best, best raw value). *)
  hypervolumes : float option array;
      (** Per run: final hypervolume proxy, only when every run shares
          the same non-empty objective spec; all [None] otherwise. *)
}

val make : ?budgets:int list -> (string * Series.t) list -> (t, string) result
(** [budgets] defaults to 5, 10, 25, 50, 100, … below the shortest
    run's length, plus that length.  [Error] when runs measure different
    metrics, no run has an iteration, or no requested budget fits the
    shortest run. *)

val to_text : t -> string
val to_json : t -> Json.t
