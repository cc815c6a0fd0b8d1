(** Replay a {!Trace} against an application's analytic service model.

    Replay is a pure function: the service model is a closed queueing
    approximation (M/M/1-style), so the same trace and service always
    produce bitwise-identical samples.  The virtual-clock connection is
    made by the caller — a trace-replay evaluation charges
    {!Trace.duration_s} as its run time; this module never touches a
    clock.

    Per window [i] with offered load [l] and service capacity [c]
    (requests/second), utilization is [rho = l /. c]:

    - delivered throughput is [min l c] — the service cannot complete
      more than it can serve;
    - latency follows [base /. (1. -. rho)] while [rho] is below the
      saturation knee (0.99), then grows linearly with the excess so
      overload windows are heavily but finitely penalized (the curve is
      continuous and monotone in [rho]);
    - memory is the service footprint inflated by up to 10% under
      load (connection state scales with concurrency).

    From the per-window samples the summary derives mean throughput,
    p50/p95/p99 latency ({!Wayfinder_tensor.Stat.quantile}, linear
    interpolation), and peak memory. *)

type service = {
  capacity_rps : float;  (** sustainable service rate, requests/second; > 0 *)
  base_latency_s : float;  (** unloaded per-request latency, seconds; > 0 *)
  memory_mb : float;  (** resident footprint at idle, MiB *)
}

type sample = {
  offered_rps : float;
  throughput_rps : float;
  latency_s : float;
  memory_mb : float;
}

type summary = {
  samples : sample array;  (** one per trace window, in trace order *)
  mean_throughput_rps : float;  (** 0 for an empty trace *)
  p50_latency_s : float;
  p95_latency_s : float;
  p99_latency_s : float;  (** latency quantiles; 0 for an empty trace *)
  peak_memory_mb : float;  (** max over windows; [service.memory_mb] for an empty trace *)
}

val window : service -> offered_rps:float -> sample
(** Evaluate a single load window.
    Test hook: test_trace checks one window with it; {!replay} is built on it. *)

val replay : Trace.t -> service -> summary
(** Evaluate every window of the trace.  @raise Invalid_argument if the
    service has non-positive capacity or base latency. *)
