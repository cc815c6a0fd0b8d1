(** A Cozart-style compile-time debloating pre-pass [43] (§4.4).

    Cozart traces which kernel components a workload actually exercises and
    disables the rest, yielding (1) a much smaller compile-time search
    space and (2) a baseline that is already leaner and slightly faster
    than the stock kernel.  Wayfinder then optimizes runtime options on
    top.

    Here the "dynamic analysis" is a deterministic per-application trace
    over {!Sim_linux}'s compile-time options: the named debug options are
    never needed, filler subsystems are needed with an app-dependent
    probability, and whatever the trace keeps becomes the reduced space.
    Throughput/memory are re-anchored to the Table 4 testbed (4 cores;
    baseline 46 855 req/s and 331.77 MB). *)

module Space = Wayfinder_configspace.Space

type t

val create : Sim_linux.t -> app:App.t -> t

val traced_options : t -> string list
(** Compile-time options the workload trace marked as exercised. *)

val reduced_space : t -> Space.t
(** The original space with all untraced compile-time options pinned off —
    what Wayfinder explores on top of Cozart.  Its defaults are the Cozart
    output, the debloated configuration. *)

val baseline_throughput : t -> float
(** Noise-free throughput of the debloated configuration on the Table 4 testbed
    (≈46 855 req/s for Nginx). *)

val baseline_memory_mb : t -> float
(** ≈331.77 MB for Nginx. *)

type outcome = {
  throughput : (float, Sim_linux.failure_stage) result;
  memory_mb : float;
  durations : Sim_linux.durations;
}

val evaluate : t -> ?trial:int -> Space.configuration -> outcome
(** Evaluate a configuration of the reduced space on the Cozart testbed:
    throughput and memory in Table 4's units. *)
