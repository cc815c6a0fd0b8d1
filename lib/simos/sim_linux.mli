(** SimLinux: a simulated Linux kernel for Wayfinder to specialize.

    This is the substitution for the paper's real Linux v4.19 testbed (see
    DESIGN.md §2).  It exposes a configuration space with all three stages
    — named runtime sysctls (with the effects documented in §4.1's
    "High-Impact Configuration Parameters" analysis), boot-time parameters,
    named compile-time options plus synthetic filler in both the runtime
    and compile-time stages — and evaluates configurations against the four
    §4 applications:

    - Per-application performance is a product of response-shape factors
      ({!Shapes}) with parameter interactions (e.g. the somaxconn ×
      syn-backlog synergy, or BBR congestion control requiring the
      [TCP_CONG_BBR] compile option) and multiplicative run-to-run noise.
    - Roughly a third of randomly drawn configurations fail: integer
      parameters carry hidden crash regions near the top of their ranges,
      some boolean pairs conflict, certain compile combinations do not
      build, and under-provisioned boot parameters do not boot — all
      deterministic given the model seed, so failures are learnable.
    - Evaluation produces virtual durations (build / boot / run) matching
      the 60–80 s per-iteration costs of Figure 8.

    Everything is deterministic given [seed], [config] and [trial]. *)

module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Probe = Wayfinder_configspace.Probe

type t

val create :
  ?n_filler_runtime:int ->
  ?n_filler_compile:int ->
  ?seed:int ->
  ?hardware:Hardware.t ->
  unit ->
  t
(** Defaults: 80 filler runtime parameters, 60 filler compile options,
    seed 0, the paper's single-NUMA-node Xeon. *)

val space : t -> Space.t

type failure_stage = Build_failure | Boot_failure | Runtime_crash

type durations = { build_s : float; boot_s : float; run_s : float }
(** Virtual seconds.  [build_s] is the full-image build cost; the platform
    skips charging it when only runtime parameters changed (§3.1). *)

type outcome = { result : (float, failure_stage) result; durations : durations }
(** [Ok value] is the raw metric in the application's unit (req/s, μs/op,
    Mop/s). *)

val evaluate :
  t -> app:App.t -> ?workload:Workload.t -> ?trial:int -> Space.configuration -> outcome
(** [workload] defaults to {!Workload.default_for} the application and
    shifts the performance model (§3.5's workload sensitivity: backlog
    parameters only matter under connection pressure, writeback knobs
    under write traffic).  [trial] seeds measurement noise; re-running the
    same configuration with a different trial gives a slightly different
    (but crash-consistent) value.  @raise Invalid_argument on
    configurations that fail {!Space.validate} or on a workload that does
    not drive [app]. *)

val default_value : t -> app:App.t -> ?workload:Workload.t -> unit -> float
(** Noise-free metric of the default configuration under a workload. *)

val memory_footprint_mb : t -> Space.configuration -> float
(** Resident size of the booted image, driven mostly by enabled
    compile-time options (used by the §4.4 co-optimization). *)

val sysfs : t -> Probe.iface
(** A simulated [/proc/sys] over the runtime parameters, for the §3.4
    range-probing heuristic: reads return defaults, writes succeed exactly
    within the parameter's true range, and writes into a hidden crash
    region crash the probe VM. *)
