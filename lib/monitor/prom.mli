(** Prometheus text exposition (format 0.0.4).

    Renders the obs {!Wayfinder_obs.Metrics.snapshot} (counters →
    counters, power-of-two histograms → cumulative [_bucket{le="..."}]
    series with the mandatory [+Inf] bucket plus [_sum]/[_count]) and
    the {!Wayfinder_analytics.Running.stats} gauges.  Metric names are prefixed
    [wayfinder_] and sanitized to [[a-zA-Z0-9_:]]; values use the
    exact-round-trip number codec ([+Inf]/[-Inf]/[NaN] spelled the
    Prometheus way), so the exposition is a deterministic function of
    the run. *)

module Obs = Wayfinder_obs

val metric_name : string -> string
(** [wayfinder_] + the name with every character outside
    [[a-zA-Z0-9_:]] replaced by ['_'].
    Test hook: test_monitor checks name sanitising with it; the exporter names every
    series through it. *)

val render :
  ?stats:Wayfinder_analytics.Running.stats ->
  ?snapshot:Obs.Metrics.snapshot ->
  unit ->
  string
(** Gauges from [stats] (when given) followed by the registry's counters
    and histograms (when given); trailing newline included. *)
