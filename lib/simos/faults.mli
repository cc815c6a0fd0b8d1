(** Transient-fault model.

    Real benchmarking platforms (§3.1's testbed driving thousands of
    build/boot/benchmark cycles) see failures that are *not* properties of
    the configuration: VMs hang at boot, builds flake on full disks or
    network hiccups, benchmarks die to unrelated interference, and
    measurements are occasionally corrupted by noisy neighbours.  This
    module models those transients so the platform's resilience layer
    (retry, per-phase timeouts, outlier rejection — see
    [Wayfinder_platform.Resilience]) has something honest to defend
    against, distinct from the deterministic config-caused crashes the
    simulators already produce.

    The schedule is a pure function of [(seed, trial)]: the same plan
    always injects the same fault at the same trial, so runs stay
    reproducible and retries (which re-evaluate under a fresh trial
    number) can deterministically succeed or fail. *)

type rates = {
  boot_hang : float;  (** VM never comes up; virtual boot time blows up. *)
  flaky_build : float;  (** Build fails for reasons unrelated to the config. *)
  spurious_failure : float;  (** Benchmark dies transiently after a good boot. *)
  outlier : float;  (** Measurement corrupted by a heavy-tailed factor. *)
}

val zero_rates : rates
(** Test hook: test_resilience builds a plan that never strikes with it. *)

val rates_of_total : float -> rates
(** Split a total transient-fault probability across the four kinds with a
    realistic mix (flaked benchmarks and outliers dominate; hangs and build
    flakes are rarer).  @raise Invalid_argument outside [\[0, 1\]]. *)

type fault =
  | Boot_hang of { stall_s : float }
  | Flaky_build
  | Spurious_failure
  | Outlier of { factor : float }

type t
(** An injection plan: seed + rates.  Immutable and stateless. *)

val create :
  ?rates:rates -> ?hang_stall_s:float -> ?outlier_sigma:float -> seed:int -> unit -> t
(** A hang stalls [hang_stall_s] (default 3600 virtual seconds, far beyond
    any boot); an outlier's log-factor has deviation [outlier_sigma]
    (default 1.2).  @raise Invalid_argument on negative rates, a rate sum
    above 1, or a non-positive stall. *)

val draw : t -> trial:int -> fault option
(** The fault (if any) striking evaluation [trial].  Deterministic: equal
    plans and trials always yield equal draws. *)
