module Stat = Wayfinder_tensor.Stat

type service = {
  capacity_rps : float;
  base_latency_s : float;
  memory_mb : float;
}

type sample = {
  offered_rps : float;
  throughput_rps : float;
  latency_s : float;
  memory_mb : float;
}

type summary = {
  samples : sample array;
  mean_throughput_rps : float;
  p50_latency_s : float;
  p95_latency_s : float;
  p99_latency_s : float;
  peak_memory_mb : float;
}

(* Past this utilization the 1/(1-rho) curve is cut over to a linear
   overload penalty: still monotone and continuous, but finite, so a
   saturated window dominates the tail quantiles without producing
   infinities that would poison scalarization. *)
let knee = 0.99

let window service ~offered_rps =
  let rho = offered_rps /. service.capacity_rps in
  let latency_s =
    if rho < knee then service.base_latency_s /. (1. -. rho)
    else
      service.base_latency_s /. (1. -. knee) *. (1. +. ((rho -. knee) *. 100.))
  in
  { offered_rps;
    throughput_rps = Float.min offered_rps service.capacity_rps;
    latency_s;
    memory_mb = service.memory_mb *. (1. +. (0.05 *. Float.min rho 2.)) }

let replay trace service =
  if not (service.capacity_rps > 0.) then
    invalid_arg "Trace_replay.replay: capacity_rps must be positive";
  if not (service.base_latency_s > 0.) then
    invalid_arg "Trace_replay.replay: base_latency_s must be positive";
  let samples =
    Array.map (fun l -> window service ~offered_rps:l) trace.Trace.loads
  in
  if Array.length samples = 0 then
    { samples;
      mean_throughput_rps = 0.;
      p50_latency_s = 0.;
      p95_latency_s = 0.;
      p99_latency_s = 0.;
      peak_memory_mb = service.memory_mb }
  else
    let latencies = Array.map (fun s -> s.latency_s) samples in
    let q = Stat.quantiles latencies [| 0.50; 0.95; 0.99 |] in
    { samples;
      mean_throughput_rps =
        Stat.mean (Array.map (fun s -> s.throughput_rps) samples);
      p50_latency_s = q.(0);
      p95_latency_s = q.(1);
      p99_latency_s = q.(2);
      peak_memory_mb =
        Array.fold_left (fun acc s -> Float.max acc s.memory_mb) neg_infinity samples }
