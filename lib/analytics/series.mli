(** Derived analytics series — one implementation, three sources.

    A {!t} is built from a live {!Wayfinder_platform.History.t} (plus its
    space), from a loaded {!Ledger.t}, or from a [History.to_csv] export;
    every downstream consumer (the [analyze]/[compare] subcommands, the
    [--progress] line, the figure benches) computes on the same rows with
    the same code: the run statistics are the {!Running} fold over the
    rows.  The analytics conformance property pins the first two sources
    to byte-identical rows and series for the same run. *)

module Param = Wayfinder_configspace.Param
module Space = Wayfinder_configspace.Space
module History = Wayfinder_platform.History
module Metric = Wayfinder_platform.Metric
module Failure = Wayfinder_platform.Failure
module Search_algorithm = Wayfinder_platform.Search_algorithm

type row = Ledger.row = {
  index : int;
  tokens : string array;
  value : float option;
  failure : Failure.t option;
  at_seconds : float;
  eval_seconds : float;
  built : bool;
  decide_seconds : float;
  belief : Search_algorithm.belief option;
  objectives : float array option;
      (** Raw objective vector (multi-objective ledgers only); [None] from
          CSV and on scalar rows. *)
}

type t = {
  metric : Metric.t;
  names : string array;  (** Positional parameter names; [[||]] from CSV. *)
  stages : Param.stage array;  (** Aligned with [names]. *)
  rows : row array;  (** Completion order. *)
  objectives : Metric.t array;
      (** Objective spec of a multi-objective run; [[||]] for scalar runs
          (and from CSV, which does not carry vectors). *)
}

(** {1 Constructors} *)

val of_history :
  ?beliefs:(int -> Search_algorithm.belief option) ->
  ?objectives:Metric.t array ->
  space:Space.t ->
  History.t ->
  t
(** [beliefs] looks up the recorded pre-evaluation belief by iteration
    index (as collected through [Driver.run ~on_record]); defaults to
    none.  [objectives] is the target's objective spec (defaults to
    scalar, [[||]]). *)

val of_ledger : Ledger.t -> t

val of_csv : metric:Metric.t -> string -> (t, string) result
(** Parses a [History.to_csv] export (RFC 4180, columns located by
    header name).  Configurations and beliefs are absent from CSV, so
    {!marginals} and calibration degenerate to empty. *)

(** {1 Run statistics} *)

val running : t -> Running.t
(** The {!Running} fold after the last row. *)

val stats : t -> Running.stats
(** [Running.stats (running t)]. *)

(** {1 Convergence} *)

val length : t -> int

val best : t -> (int * float) option
(** Best successful (iteration index, raw value) under the metric. *)

val best_so_far : t -> float array
(** Running best raw value after each row; NaN before the first success. *)

val simple_regret : t -> float array
(** Score-space distance of the running best from the run's final best;
    NaN before the first success, 0 once the final best is found. *)

val samples_to_within : t -> epsilon:float -> int option
(** Samples spent until the running best scores within [epsilon]
    (relative, on score magnitude) of the final best; [None] when the run
    never succeeds. *)

val virtual_seconds_to_within : t -> epsilon:float -> float option
(** Virtual clock reading at that same iteration. *)

val samples_to_best : t -> int option
(** Samples spent (in completion order) until the best entry itself. *)

(** {1 Plotting series} *)

val values : t -> float array
(** Per-row raw values; failures repeat the previous value and leading
    failures take the first success (0 when none), so plots stay
    connected, as the paper draws Figure 6. *)

val crash_indicator : t -> float array
(** 1.0 at any failed row, 0.0 otherwise (smoothed by the caller). *)

val best_over_time : t -> bucket_s:float -> horizon_s:float -> float array
(** Running best bucketed over virtual time, gaps forward-filled (the
    Figure 9 rendering).  @raise Invalid_argument if [bucket_s <= 0]. *)

(** {1 Failure rates} *)

val windowed_crash_rate : t -> float array
(** {!Running.windowed_crash_rate} after each row. *)

val windowed_transient_rate : t -> float array

val failure_counts : t -> (string * int) list
(** Failure name → occurrences, sorted by name. *)

(** {1 Space coverage} *)

val marginals : t -> (string * (string * int) list) array
(** Per parameter: value token → times proposed, sorted by token. *)

(** {1 Objective series}

    All of these index into the run's objective spec ([t.objectives]);
    rows whose vector is absent (failures, scalar rows) are skipped. *)

val objective_count : t -> int

val objective_best : t -> int -> (int * float) option
(** Best (iteration index, raw value) of objective [i] under that
    objective's own metric. *)

val objective_best_so_far : t -> int -> float array
(** Running best of objective [i]; NaN before its first measurement. *)
