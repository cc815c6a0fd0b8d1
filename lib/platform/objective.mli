(** Multi-objective evaluation vectors.

    A multi-objective target reports a raw value vector alongside its
    scalar value; the [spec] names each component and fixes its
    direction (a {!Metric.t} per component).  Dominance and
    scalarization always operate in score space — every component
    mapped through {!Metric.score} so that higher is uniformly better —
    which keeps minimized objectives (latency, memory) and maximized
    ones (throughput) composable without special cases. *)

type spec = Metric.t array
(** One metric per objective, in vector order.  The empty spec denotes
    a single-objective (scalar-only) target. *)

val builtin : string -> Metric.t option
(** Objectives the trace-replay targets know how to measure:
    ["throughput"] (req/s, maximize), ["p50"]/["p95"]/["p99"] (latency
    seconds, minimize), ["memory"] (MiB, minimize).
    Test hook: test_trace resolves objective names with it. *)

val spec_of_names : string list -> (spec, string) result
(** Resolve a list of {!builtin} names; [Error] names the first
    unknown objective. *)

val scores : spec -> float array -> float array
(** Map a raw vector into score space (componentwise {!Metric.score}).
    @raise Invalid_argument on length mismatch. *)

val dominates : spec -> float array -> float array -> bool
(** [dominates spec a b]: raw vector [a] is at least as good as [b] on
    every objective and strictly better on at least one. *)

val equal_vec : float array -> float array -> bool
(** Componentwise bitwise float equality (NaN-safe). *)
