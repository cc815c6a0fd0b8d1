module Obs = Wayfinder_obs
module A = Wayfinder_analytics

(* Prometheus text exposition (version 0.0.4) of the obs metrics
   registry plus live-series gauges.  Counters map to counters,
   power-of-two histograms to cumulative [_bucket{le=...}] series with
   the mandatory [+Inf] bucket, [_sum] and [_count].  Numbers use the
   exact number writer of ledgers and traces (Obs.Attr.add_number), so
   the file is as replayable as the ledger it came from, and every line
   is written straight into one buffer. *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let metric_name name = "wayfinder_" ^ sanitize name

let add_number buf v =
  if v = infinity then Buffer.add_string buf "+Inf"
  else if v = neg_infinity then Buffer.add_string buf "-Inf"
  else if Float.is_nan v then Buffer.add_string buf "NaN"
  else Obs.Attr.add_number buf v

let add_scalar kind buf name v =
  let n = metric_name name and add = Buffer.add_string buf in
  add "# TYPE "; add n; add " "; add kind; add "\n";
  add n; add " "; add_number buf v; add "\n"

let add_counter = add_scalar "counter"
let add_gauge = add_scalar "gauge"

(* The registry's finite bucket bounds, rendered once: most are
   fractions, which [add_number] writes with [%.17g]. *)
let bound_texts =
  Array.init (Obs.Metrics.n_buckets - 1) (fun i -> Obs.Attr.number (Obs.Metrics.bucket_bound i))

let add_bound buf bound =
  let i = Obs.Metrics.bucket_index bound in
  if i < Array.length bound_texts && Obs.Metrics.bucket_bound i = bound then
    Buffer.add_string buf bound_texts.(i)
  else add_number buf bound

let add_histogram buf name (h : Obs.Metrics.histogram) =
  let n = metric_name name and add = Buffer.add_string buf in
  let count = Obs.Attr.add_int buf in
  add "# TYPE "; add n; add " histogram\n";
  let cum = ref 0 in
  Array.iter
    (fun (bound, c) ->
      cum := !cum + c;
      if bound <> infinity then begin
        add n; add "_bucket{le=\""; add_bound buf bound; add "\"} "; count !cum; add "\n"
      end)
    h.Obs.Metrics.buckets;
  add n; add "_bucket{le=\"+Inf\"} "; count h.Obs.Metrics.count; add "\n";
  add n; add "_sum "; add_number buf h.Obs.Metrics.sum; add "\n";
  add n; add "_count "; count h.Obs.Metrics.count; add "\n"

let of_snapshot buf (s : Obs.Metrics.snapshot) =
  List.iter (fun (name, v) -> add_counter buf name v) s.Obs.Metrics.counters;
  List.iter (fun (name, h) -> add_histogram buf name h) s.Obs.Metrics.histograms

let of_stats buf (s : A.Running.stats) =
  let g = add_gauge buf in
  g "live.iteration" (float_of_int s.length);
  (match s.best with Some (_, v) -> g "live.best" v | None -> ());
  if not (Float.is_nan s.best_so_far) then g "live.best_so_far" s.best_so_far;
  g "live.regret_slope" s.regret_slope;
  g "live.crash_rate" s.crash_rate;
  g "live.transient_rate" s.transient_rate;
  g "live.windowed_crash_rate" s.windowed_crash_rate;
  g "live.windowed_transient_rate" s.windowed_transient_rate;
  g "live.distinct_configs" (float_of_int s.distinct_configs);
  g "live.distinct_stage_keys" (float_of_int s.distinct_stage_keys);
  Option.iter (fun n -> g "live.pareto_size" (float_of_int n)) s.pareto_size;
  Option.iter (g "live.hypervolume_proxy") s.hypervolume_proxy;
  g "live.virtual_seconds" s.virtual_seconds;
  g "live.eval_seconds_total" s.total_eval_seconds

(* A run renders its scrape file hundreds of times at about the same
   size, so each render's buffer starts at the previous render's size,
   with an eighth to spare, instead of doubling from 1 KB. *)
let size_hint = Atomic.make 1024

let render ?stats ?snapshot () =
  let buf = Buffer.create (Atomic.get size_hint) in
  (match stats with Some s -> of_stats buf s | None -> ());
  (match snapshot with Some s -> of_snapshot buf s | None -> ());
  Atomic.set size_hint (Buffer.length buf + (Buffer.length buf / 8));
  Buffer.contents buf
