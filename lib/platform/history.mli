(** Exploration history.

    The platform records every evaluated configuration, its outcome and its
    timing; search algorithms read the history through their API (§3.1).
    The evaluation figures' series over it (best-so-far, smoothed values,
    crash indicators) are [Analytics.Series] functions. *)

module Space = Wayfinder_configspace.Space

type entry = {
  index : int;  (** 0-based iteration. *)
  config : Space.configuration;
  value : float option;  (** Raw metric; [None] on failure. *)
  failure : Failure.t option;  (** Typed failure kind (see {!Failure.klass}). *)
  at_seconds : float;  (** Virtual clock when the evaluation finished. *)
  eval_seconds : float;  (** Virtual cost charged for this iteration. *)
  built : bool;  (** Whether an image build was charged (rebuild-skip). *)
  decide_seconds : float;  (** Real time the search algorithm spent. *)
  objectives : float array option;
      (** Raw objective vector for multi-objective targets; [None] on
          scalar targets and on failed evaluations.  Not serialized by
          {!to_csv} (the CSV schema is scalar and byte-stable); ledgers
          carry it. *)
}

type t

val create : Metric.t -> t
val metric : t -> Metric.t
val add : t -> entry -> unit
val size : t -> int
val entries : t -> entry array
(** Oldest first. *)

val latest : t -> int -> entry list
(** The newest [n] entries (all of them when there are fewer), oldest
    first, in O(n): what a checkpoint journal appends since its previous
    save. *)

val crashes : t -> int
(** Entries with any failure, of any class. *)

val crash_rate : t -> float

val transient_rate : t -> float
(** The share of entries lost to the testbed rather than the
    configuration: transient faults and timeouts. *)

val windowed_crash_rate : t -> window:int -> float
(** Crash rate over the last [window] entries. *)

val best : t -> entry option
(** Best *successful* entry under the metric. *)

val best_value : t -> float option
val time_to_best : t -> float option
(** Virtual time at which the best entry was found. *)

val builds_charged : t -> int
val total_eval_seconds : t -> float
val mean_decide_seconds : t -> float

val csv_field : string -> string
(** RFC 4180 field quoting: the string unchanged unless it contains a
    comma, quote or line break, in which case it is double-quoted with
    embedded quotes doubled.
    Test hook: test_platform checks RFC 4180 quoting with it; the CSV export quotes
    every field through it. *)

val to_csv : t -> string
(** One row per entry:
    [index,value,failure,failure_class,at_s,eval_s,built,decide_s].
    [failure_class] is {!Failure.klass_to_string} of the failure's class
    (empty on success), so offline analytics ([wayfinder analyze
    --from-csv]) can distinguish crashes from transients without
    re-parsing failure names.  String fields are RFC 4180-quoted. *)
