(** The one streaming fold behind every run statistic.

    {!Series} folds a whole row array through it; a live monitor feeds
    it one record at a time.  Either way the statistics come from the
    same code, so a batch report and a live view of the same rows agree
    bit for bit.  Each {!observe} costs O(1) amortised, plus a Pareto
    insert linear in the front; the distinct config and stage-key sets,
    the costly part, are keyed only when {!stats} reads them or
    {!key_pending} asks. *)

module Param = Wayfinder_configspace.Param
module Metric = Wayfinder_platform.Metric

val default_window : int
(** 25 — the trailing window of the slope, the windowed rates and the
    [--series] CSV, and the alert rules' default. *)

val improves : Metric.t -> (int * float) option -> float -> bool
(** [improves m best v]: [v] becomes the running best — the first
    value, or strictly better under [m]. *)

type t

val create :
  metric:Metric.t -> stages:Param.stage array -> objectives:Metric.t array -> unit -> t
(** [stages] are the positional parameter stages (for stage keys);
    [objectives = [||]] means a scalar run (no Pareto front). *)

val observe : t -> Ledger.row -> unit
(** Fold in one row, in completion order. *)

val length : t -> int

val best : t -> (int * float) option
(** Best successful (iteration index, raw value) under the metric. *)

val best_so_far : t -> float
(** Running best raw value; NaN before the first success. *)

val last_improvement : t -> int
(** 1-based row count at which the running best last improved; 0
    before any success. *)

val regret_slope : t -> float
(** Least-squares slope (score units per sample) of the running best
    over the trailing window's finite points; 0 with fewer than two. *)

val crash_rate : t -> float

val windowed_crash_rate : t -> float
(** Crash share of the trailing [min length default_window] rows; 0 when
    empty. *)

val windowed_transient_rate : t -> float

val virtual_seconds : t -> float
(** Virtual clock at the last row; 0 when empty. *)

val hypervolume_proxy : t -> float option
(** Of the Pareto front; [None] for scalar runs. *)

type stats = {
  length : int;
  best : (int * float) option;  (** Best (iteration index, raw value). *)
  best_so_far : float;
  regret_slope : float;
  crash_rate : float;
  transient_rate : float;
  windowed_crash_rate : float;
  windowed_transient_rate : float;
  distinct_configs : int;
  distinct_stage_keys : int;
      (** Distinct non-runtime projections — images the run needed. *)
  pareto_size : int option;  (** [None] for scalar runs. *)
  hypervolume_proxy : float option;
  virtual_seconds : float;
  total_eval_seconds : float;
}

val key_pending : t -> unit
(** Key the rows observed since the last call (or {!stats}) into the
    distinct sets and let go of them.  A caller that keeps only a window
    of rows calls it before a row leaves the window, so the fold holds no
    more rows than the caller does. *)

val stats : t -> stats
(** Every statistic at once, as its accessor above reads it; the
    distinct counts key the rows observed since the last call. *)

val crash_share : Ledger.row array -> float
(** Crash share of a slice; 0 when empty.  The windowed crash rate of a
    trailing slice without folding it. *)

val mean_success : Ledger.row array -> float
(** Mean raw value of the successful rows, summed in order; NaN if none. *)
