module Rng = Wayfinder_tensor.Rng

type rates = {
  boot_hang : float;
  flaky_build : float;
  spurious_failure : float;
  outlier : float;
}

let zero_rates = { boot_hang = 0.; flaky_build = 0.; spurious_failure = 0.; outlier = 0. }

let rates_total r = r.boot_hang +. r.flaky_build +. r.spurious_failure +. r.outlier

(* The default split mirrors what a real testbed sees: most transients are
   flaked benchmarks and corrupted measurements; hangs and build flakes are
   rarer but far more expensive. *)
let rates_of_total total =
  if total < 0. || total > 1. then invalid_arg "Faults.rates_of_total: total outside [0, 1]";
  { boot_hang = 0.15 *. total;
    flaky_build = 0.15 *. total;
    spurious_failure = 0.40 *. total;
    outlier = 0.30 *. total }

type fault =
  | Boot_hang of { stall_s : float }
  | Flaky_build
  | Spurious_failure
  | Outlier of { factor : float }

type t = { seed : int; rates : rates; hang_stall_s : float; outlier_sigma : float }

let default_hang_stall_s = 3600.
let default_outlier_sigma = 1.2

let create ?(rates = zero_rates) ?(hang_stall_s = default_hang_stall_s)
    ?(outlier_sigma = default_outlier_sigma) ~seed () =
  if rates_total rates > 1. then invalid_arg "Faults.create: rates sum above 1";
  if rates.boot_hang < 0. || rates.flaky_build < 0. || rates.spurious_failure < 0.
     || rates.outlier < 0.
  then invalid_arg "Faults.create: negative rate";
  if hang_stall_s <= 0. then invalid_arg "Faults.create: hang_stall_s must be positive";
  { seed; rates; hang_stall_s; outlier_sigma }

(* Each (seed, trial) pair keys its own throwaway generator, so the fault
   schedule is a pure function of the plan — evaluating trials in any
   order, or re-evaluating one, always sees the same fault.  The trial is
   spread with a 64-bit odd constant before [Rng.create]'s own finalizer
   mix so nearby trials land on unrelated streams. *)
let draw t ~trial =
  let key = t.seed lxor (trial * 0x2545F4914F6CDD1D) in
  let rng = Rng.create key in
  let u = Rng.float rng 1.0 in
  let r = t.rates in
  if u < r.boot_hang then
    (* Hung boots stall for "hours" of virtual time (a VM that never comes
       up); with jitter so repeated hangs are distinguishable in traces. *)
    Some (Boot_hang { stall_s = t.hang_stall_s *. (1. +. Rng.float rng 1.0) })
  else if u < r.boot_hang +. r.flaky_build then Some Flaky_build
  else if u < r.boot_hang +. r.flaky_build +. r.spurious_failure then Some Spurious_failure
  else if u < rates_total r then
    (* Heavy-tailed measurement corruption, symmetric in log space: the
       dangerous direction (a fake speedup) is as likely as a fake
       slowdown, so outlier rejection cannot cheat by clamping one side. *)
    let factor = exp (Rng.normal rng ~sigma:t.outlier_sigma ()) in
    (* Keep the factor away from 1 so an "outlier" is actually anomalous. *)
    let factor =
      if factor >= 1. then Float.max factor 1.3 else Float.min factor (1. /. 1.3)
    in
    Some (Outlier { factor })
  else None
