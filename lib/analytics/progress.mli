(** The [--progress N] one-line live snapshot.

    Built from the same {!Series} code the [analyze] subcommand uses —
    there is deliberately no duplicated math here: the line is a
    projection of {!Series.best}, {!Series.regret_slope},
    {!Series.crash_rate} and two observability aggregates (image-cache
    hit rate, mean worker busyness). *)

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

val default_window : int
(** 25 — trailing window for the slope. *)

val of_series :
  ?window:int -> ?metrics:Obs.Metrics.snapshot -> ?workers:int -> Series.t -> snapshot

val with_metrics : workers:int -> Obs.Metrics.snapshot -> snapshot -> snapshot
(** Fill [cache_hit_rate] and [worker_busy] from a metrics snapshot —
    how {!of_series} does it with [?metrics], and how a live series'
    progress projection gets the same two fields. *)

val to_line : ?alerts:string list -> metric:Metric.t -> snapshot -> string
(** e.g. [[iter 120] best 812.300 req/s | slope +0.42/it | crash 18% |
    cache 37% | busy 86% | vt 3.4h].  [alerts] (default none) appends the
    active alert-rule names: [... | ALERT crash,stall]. *)
