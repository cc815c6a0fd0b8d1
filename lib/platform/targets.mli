(** Adapters turning the {!Wayfinder_simos} models into platform targets. *)

module Simos = Wayfinder_simos

val failure_of_stage : Simos.Sim_linux.failure_stage -> Failure.t
(** The simulator's failure stages mapped onto the platform taxonomy
    (all three are {!Failure.klass} [Deterministic]). *)

val of_sim_linux : Simos.Sim_linux.t -> app:Simos.App.t -> Target.t
(** Metric taken from the application (throughput or latency). *)

val of_sim_linux_memory : Simos.Sim_linux.t -> app:Simos.App.t -> Target.t
(** Same kernel, but the metric is the image's memory footprint (crashes
    still come from the run attempt). *)

val of_sim_unikraft : Simos.Sim_unikraft.t -> Target.t
val of_sim_riscv : Simos.Sim_riscv.t -> Target.t

val of_cozart :
  Simos.Cozart.t -> score:(throughput:float -> memory_mb:float -> float) -> Target.t
(** The §4.4 co-optimization target: evaluation yields the composite score
    of throughput and memory (eq. 4's normalisation is supplied by the
    caller, typically over the running history). *)

val of_sim_linux_trace :
  Simos.Sim_linux.t ->
  app:Simos.App.t ->
  scenario:Scenario.t ->
  objectives:Objective.spec ->
  ?scalarize:Scalarize.t ->
  unit ->
  Target.t
(** Trace-driven multi-objective target: each evaluation runs the
    analytic model once (crashes and noise as usual), derives a service
    model — capacity from relative performance (1000 req/s for the default
    configuration), base latency inflated by
    the image's memory footprint — and replays the scenario's current
    trace slice through {!Simos.Trace_replay}, reporting the objective
    vector named by [objectives] (any of [throughput]/[p50]/[p95]/[p99]
    in trace units, [memory] in MiB; see {!Objective.builtin}).  The
    scalar value is [scalarize] (default: equal weights) applied to the
    vector under a synthetic maximized "score" metric — except with a
    single objective, where the value is the raw objective under its own
    metric, the exact degenerate scalar case.  The run phase charges the
    replayed slice's virtual duration.
    @raise Invalid_argument on an empty or unmeasurable objective list,
    or a [scalarize] that fails {!Scalarize.validate}. *)
