(** The [wayfinder analyze] report: every diagnostic the analytics layer
    derives from one run, in one record, renderable as text or JSON. *)

module Metric = Wayfinder_platform.Metric

val default_epsilon : float
(** 0.01 — "within 1% of the run's best". *)

type report = {
  label : string;
  algo : string option;
  metric : Metric.t;
  stats : Running.stats;
      (** Iterations, best, virtual time, failure rates, distinct configs
          and stage keys, Pareto front size and hypervolume proxy. *)
  final_regret : float;
  epsilon : float;
  samples_to_within : int option;
  virtual_seconds_to_within : float option;
  samples_to_best : int option;
  failure_counts : (string * int) list;
  marginals : (string * (string * int) list) array;  (** {!Series.marginals}. *)
  calibration : Calibration.t;
  objective_best : (Metric.t * (int * float) option) array;
      (** Per objective of a multi-objective run: best (iteration, raw
          value) under that objective's own metric; [[||]] for scalar
          runs. *)
}

val of_series : ?label:string -> ?algo:string -> ?epsilon:float -> Series.t -> report

val to_text : report -> string
(** Human-readable multi-line report; marginals and failure counts are
    rendered sorted, so output is deterministic. *)

val to_json : report -> Json.t

val series_csv : Series.t -> string
(** Per-iteration derived series ({!Running.default_window} is [N]) —
    [iteration,value,best_so_far,simple_regret,crash_rate_wN,transient_rate_wN,at_s]
    — with floats in the exact-round-trip codec of {!Json}.
    Multi-objective runs append one [best_<name>] running-best column per
    objective; scalar output is unchanged byte-for-byte. *)
