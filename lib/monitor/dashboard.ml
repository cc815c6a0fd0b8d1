module Metric = Wayfinder_platform.Metric
module Obs = Wayfinder_obs
module A = Wayfinder_analytics

(* The watch dashboard is a pure function of the ledger's semantic
   content: no wall clock, no file paths, and none of the per-row
   wall-clock fields (decide_s) appear — so two runs with identical
   seeds render byte-identical frames, which CI diffs. *)

let seal_to_string = function
  | Tail.Unsealed -> "live (no fin seal yet)"
  | Tail.Sealed -> "sealed"
  | Tail.Sealed_unverified -> "sealed (crc not verified: resumed mid-file)"

let render ?(alerts = []) ?(dropped = 0) ~seal ~(meta : A.Ledger.meta) live =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let m = meta.A.Ledger.metric in
  line "wayfinder watch — %s on %s [%s] (%s)%s" meta.A.Ledger.algo
    m.Metric.metric_name m.Metric.unit_name
    (if m.Metric.maximize then "maximize" else "minimize")
    (match meta.A.Ledger.seed with
    | Some s -> Printf.sprintf ", seed %d" s
    | None -> "");
  let s = Live_series.stats live in
  line "%s" (A.Progress.to_line ~alerts ~metric:m (Live_series.progress live));
  line "window(%d): crash %.0f%% | transient %.0f%% | best-so-far %s" A.Running.default_window
    (100. *. s.A.Running.windowed_crash_rate)
    (100. *. s.A.Running.windowed_transient_rate)
    (if Float.is_nan s.A.Running.best_so_far then "-"
     else Printf.sprintf "%.3f %s" s.A.Running.best_so_far m.Metric.unit_name);
  line "coverage: %d evaluated | %d configs | %d stage keys | eval time %s"
    s.A.Running.length s.A.Running.distinct_configs s.A.Running.distinct_stage_keys
    (Obs.Summary.si s.A.Running.total_eval_seconds);
  (match (s.A.Running.pareto_size, s.A.Running.hypervolume_proxy) with
  | Some n, Some hv -> line "pareto: %d points | hv proxy %g" n hv
  | _ -> ());
  line "ledger: %s | %d rows | %d dropped" (seal_to_string seal) s.A.Running.length dropped;
  Buffer.contents buf
