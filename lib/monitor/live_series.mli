(** Streaming run statistics — the incremental twin of
    {!Wayfinder_analytics.Series}.

    Feed it rows one at a time (from a live [on_record] hook or a tailed
    ledger) and every statistic the batch code computes by scanning the
    whole history is available in O(1) (amortised) per record: running
    best, trailing-window regret slope, total and windowed crash /
    transient rates, coverage, the Pareto front, and virtual-time totals.

    The contract — pinned by the conformance suite — is {e bitwise}
    equality with the batch rebuild: after [k] calls to {!observe},
    {!stats} equals {!stats_of_series} of a [Series.t] over the same
    first [k] rows, float-for-float ([Int64.bits_of_float] comparison),
    at every prefix.  Where that requires replaying the batch code's
    exact operation order (the slope's least-squares loop, the windowed
    counter dance), this module transcribes it rather than
    approximating. *)

module Param = Wayfinder_configspace.Param
module Metric = Wayfinder_platform.Metric
module Pareto = Wayfinder_platform.Pareto
module A = Wayfinder_analytics

type t

val default_window : int
(** = {!A.Progress.default_window}. *)

val create :
  ?window:int ->
  metric:Metric.t ->
  names:string array ->
  stages:Param.stage array ->
  objectives:Metric.t array ->
  unit ->
  t
(** [window] (default {!default_window}) sizes the trailing window of the
    slope and the windowed rates.  [objectives = [||]] means a scalar
    run (no Pareto front).  @raise Invalid_argument if [window <= 0]. *)

val of_meta : ?window:int -> A.Ledger.meta -> t
(** A live series shaped by a ledger's meta record — what [watch]
    constructs before replaying the rows. *)

val observe : t -> A.Series.row -> unit
(** Fold in one completed iteration.  Rows must arrive in completion
    order (the order the ledger records them). *)

val length : t -> int
val window : t -> int
val metric : t -> Metric.t

val last_improvement : t -> int
(** 1-based iteration count at which the running best last improved
    (first success included); 0 before any success — the stall rule's
    input. *)

type stats = {
  length : int;
  best : (int * float) option;  (** As {!A.Series.best}. *)
  best_so_far : float;  (** Last running-best value; NaN before any. *)
  regret_slope : float;  (** As {!A.Series.regret_slope} over [window]. *)
  crash_rate : float;
  transient_rate : float;
  windowed_crash_rate : float;
      (** Last element of {!A.Series.windowed_crash_rate}; 0 when empty. *)
  windowed_transient_rate : float;
  evaluated : int;
  distinct_configs : int;
  distinct_stage_keys : int;
  pareto_size : int option;  (** [None] for scalar runs. *)
  hypervolume_proxy : float option;
  virtual_seconds : float;  (** As {!A.Series.last_at_seconds}. *)
  total_eval_seconds : float;
}

val stats : t -> stats

val stats_of_series : ?window:int -> A.Series.t -> stats
(** The batch oracle: the same statistics computed only through
    {!A.Series} functions — the right-hand side of the conformance
    property. *)

val series : t -> A.Series.t
(** The accumulated rows as a batch series (fresh row array). *)

val tail_series : t -> window:int -> A.Series.t
(** The trailing [min n window] rows as a batch series — the drift
    rule's O(window) probe input.  @raise Invalid_argument if
    [window <= 0]. *)

val pareto : t -> Pareto.t option

val progress : t -> A.Progress.snapshot
(** The [--progress] projection ({!A.Progress.of_series} shape) computed
    from live state; [cache_hit_rate] and [worker_busy] are [None] — a
    ledger consumer has no metrics registry; a live run fills them with
    {!A.Progress.with_metrics}. *)
