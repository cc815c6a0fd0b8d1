(** The [--progress N] one-line live snapshot.

    A projection of the {!Running} statistics the [analyze] subcommand
    also reports — best, regret slope, crash rate, virtual time — plus
    two observability aggregates (image-cache hit rate, mean worker
    busyness).  There is deliberately no math here. *)

module Metric = Wayfinder_platform.Metric
module Obs = Wayfinder_obs

type snapshot = {
  iteration : int;
  best : float option;
  regret_slope : float;  (** Score units per sample, trailing window. *)
  crash_rate : float;
  cache_hit_rate : float option;
      (** [hits / (hits + misses)] of the shared image cache; [None]
          before the first lookup or without metrics. *)
  worker_busy : float option;
      (** Mean busy fraction of the worker pool; [None] unless
          [workers > 1] and the histogram has samples. *)
  virtual_seconds : float;
}

val of_running : Running.t -> snapshot
(** [cache_hit_rate] and [worker_busy] are [None]; see {!with_metrics}. *)

val of_series : ?metrics:Obs.Metrics.snapshot -> ?workers:int -> Series.t -> snapshot
(** {!of_running} of {!Series.running}, filled {!with_metrics} when given. *)

val with_metrics : workers:int -> Obs.Metrics.snapshot -> snapshot -> snapshot
(** Fill [cache_hit_rate] and [worker_busy] from a metrics snapshot —
    how {!of_series} does it with [?metrics], and how a live series'
    progress projection gets the same two fields. *)

val to_line : ?alerts:string list -> metric:Metric.t -> snapshot -> string
(** e.g. [[iter 120] best 812.300 req/s | slope +0.42/it | crash 18% |
    cache 37% | busy 86% | vt 3.4h].  [alerts] (default none) appends the
    active alert-rule names: [... | ALERT crash,stall]. *)
