(** A live run's statistics: one {!Wayfinder_analytics.Running} fold
    plus the rows its alert rules read.

    Feed it rows one at a time (from a live [on_record] hook or a tailed
    ledger).  The statistics come from the same fold that
    {!Wayfinder_analytics.Series} runs over a whole ledger, so after [k]
    calls to {!observe}, {!stats} equals [Series.stats] of those [k]
    rows bit for bit — one implementation, not a twin kept in step.

    Memory is bounded by [window], not by the run: the series keeps a
    ring of the trailing [window] rows and the run's first [window] rows
    (the drift rule's baseline), and has the fold key its pending rows
    once per lap of the ring, so the fold holds at most [window] rows
    too.  What grows with the run is the fold's distinct-config and
    stage-key sets. *)

module Param = Wayfinder_configspace.Param
module Metric = Wayfinder_platform.Metric
module A = Wayfinder_analytics

type t

val create :
  ?window:int ->
  metric:Metric.t ->
  names:string array ->
  stages:Param.stage array ->
  objectives:Metric.t array ->
  unit ->
  t
(** As {!A.Running.create}; [names] label the rows of the slices.
    [window] (default {!A.Running.default_window}) is the largest slice
    {!tail_series} and {!head_series} will be asked for: pass
    {!Rules.window} of the rules evaluated over the series.
    @raise Invalid_argument if [window <= 0]. *)

val of_meta : ?window:int -> A.Ledger.meta -> t
(** A live series shaped by a ledger's meta record — what [watch]
    constructs before replaying the rows. *)

val observe : t -> A.Series.row -> unit
(** Fold in one completed iteration.  Rows must arrive in completion
    order (the order the ledger records them). *)

val length : t -> int

val last_improvement : t -> int
(** {!A.Running.last_improvement} — the stall rule's input. *)

val stats : t -> A.Running.stats

val progress : t -> A.Progress.snapshot
(** {!A.Progress.of_running} of the fold; a live run fills the two
    metrics fields with {!A.Progress.with_metrics}. *)

val tail_series : t -> window:int -> A.Series.t
(** The trailing [min n window] rows as a batch series — the crash and
    drift rules' O(window) probe input.
    @raise Invalid_argument if [window] is not positive or exceeds the
    series' window. *)

val head_series : t -> window:int -> A.Series.t
(** The first [min n window] rows as a batch series — the drift rule's
    baseline.
    @raise Invalid_argument if [window] is not positive or exceeds the
    series' window. *)
