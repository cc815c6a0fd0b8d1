(** The platform's failure taxonomy.

    Evaluations used to fail with raw strings ("build-failure", ...),
    which made it impossible to tell a config-caused crash from a flaked
    VM — and a typo in a match arm could silently change driver behaviour.
    This variant is shared by {!Target.eval_result}, {!History.entry} and
    the driver, and every failure belongs to one of three classes:

    - {e Deterministic} — a property of the configuration (does not build,
      does not boot, crashes under load).  These are what DeepTune's crash
      head learns from.
    - {e Transient} — the testbed's fault, not the configuration's
      ({!Wayfinder_simos.Faults}): flaked builds, hung VMs, benchmark
      interference.  Retried by the driver, excluded from crash training.
    - {e Timeout} — a per-phase virtual timeout tripped; charged at the
      cap and retried (the underlying cause is usually transient). *)

type klass = Deterministic | Transient | Timeout

type t =
  | Invalid_configuration  (** Proposal rejected by {!Wayfinder_configspace.Space.validate}. *)
  | Build_failure
  | Boot_failure
  | Runtime_crash
  | Flaky_build
  | Spurious_failure
  | Boot_hang  (** Unbounded boot stall (no timeout configured to cap it). *)
  | Build_timeout
  | Boot_timeout
  | Run_timeout
  | Quarantined
      (** The configuration exhausted its retries repeatedly and is skipped
          without evaluation. *)
  | Non_finite_measurement
      (** The target reported [Ok v] with a non-finite [v] (NaN/inf from a
          degenerate target or composite metric).  The driver rejects such
          measurements instead of letting NaN corrupt the corroboration
          median or the history — the explicit NaN policy. *)
  | Other of string  (** Escape hatch for custom targets. *)

val klass : t -> klass
val klass_to_string : klass -> string

val counts_as_crash : t -> bool
(** True exactly for {!Deterministic} failures — the ones crash statistics
    and DeepTune's crash-gating should see. *)

val retryable : t -> bool
(** Transient and timeout failures (except {!Quarantined}) are worth
    re-attempting. *)

val is_build_stage : t -> bool
(** Failures that never produced an image; the driver keeps the previous
    image as the rebuild-skip baseline. *)

val to_string : t -> string
val of_string : string -> t
(** Total inverse of {!to_string}: unrecognised strings become {!Other}. *)

val all_named : t list
(** Every constructor except [Other] — for exhaustive round-trip tests.
    Test hook: test_analytics and test_resilience enumerate every failure through it. *)
