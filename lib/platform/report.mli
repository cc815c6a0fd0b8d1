(** Human-readable run reports.

    §3.5 expects an engineer to review a configuration before it ships;
    this module renders everything that review needs from a finished
    {!Driver.result}: the headline (best value, relative improvement, time
    to find), the crash statistics, the timing breakdown, and the exact
    diff of the best configuration against the default. *)

type t = {
  target_name : string;
  algorithm_name : string;
  iterations : int;
  virtual_seconds : float;
  crash_rate : float;
  late_crash_rate : float;  (** Over the final 50 iterations. *)
  transient_rate : float;
      (** Share of iterations lost to the testbed (transient faults and
          timeouts) rather than the configuration. *)
  retries : int;  (** Retry attempts charged ([driver.retries]). *)
  quarantined_configs : int;  (** Configurations given up on. *)
  builds_charged : int;
  mean_decide_seconds : float;
  phase_seconds : (string * float) list;
      (** Virtual seconds charged per driver phase (build/boot/run/invalid/
          retry/quarantined/replay), from the run's obs metrics — the
          timing footer. *)
  best : best option;
}

and best = {
  value : float;
  relative : relative option;
      (** vs the supplied default, higher-is-better.  [None] when no
          default was supplied; [Some Not_applicable] when a default was
          supplied but the ratio is undefined (zero or non-finite
          denominator, or a non-finite best value) — rendered as "n/a",
          never as [inf]/[nan]. *)
  found_at_iteration : int;
  found_at_seconds : float;
  changed : (string * string * string) list;  (** (param, default, chosen). *)
}

and relative = Ratio of float | Not_applicable

val of_result :
  ?default:float -> algorithm:string -> target:Target.t -> Driver.result -> t
(** [default] enables the relative-improvement figure. *)

val to_text : t -> string
(** Plain-text rendering (what the CLI prints). *)

