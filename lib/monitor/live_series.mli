(** A live run's statistics: its rows plus one {!Wayfinder_analytics.Running}
    fold.

    Feed it rows one at a time (from a live [on_record] hook or a tailed
    ledger).  The statistics come from the same fold that
    {!Wayfinder_analytics.Series} runs over a whole ledger, so after [k]
    calls to {!observe}, {!stats} equals [Series.stats] of those [k]
    rows bit for bit — one implementation, not a twin kept in step. *)

module Param = Wayfinder_configspace.Param
module Metric = Wayfinder_platform.Metric
module A = Wayfinder_analytics

type t

val create :
  metric:Metric.t ->
  names:string array ->
  stages:Param.stage array ->
  objectives:Metric.t array ->
  unit ->
  t
(** As {!A.Running.create}; [names] label the rows of {!series}. *)

val of_meta : A.Ledger.meta -> t
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

val series : t -> A.Series.t
(** The accumulated rows as a batch series (fresh row array). *)

val tail_series : t -> window:int -> A.Series.t
(** The trailing [min n window] rows as a batch series — the drift
    rule's O(window) probe input.  @raise Invalid_argument if
    [window <= 0]. *)
