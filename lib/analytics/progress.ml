module Metric = Wayfinder_platform.Metric
module Obs = Wayfinder_obs

type snapshot = {
  iteration : int;
  best : float option;
  regret_slope : float;
  crash_rate : float;
  cache_hit_rate : float option;
  worker_busy : float option;
  virtual_seconds : float;
}

let with_metrics ~workers m snap =
  let hits = Obs.Metrics.counter m "driver.image_cache.hits" in
  let misses = Obs.Metrics.counter m "driver.image_cache.misses" in
  let worker_busy =
    match Obs.Metrics.histogram m "driver.worker.busy" with
    | Some h when workers > 1 && h.Obs.Metrics.count > 0 ->
      Some (Obs.Metrics.mean h /. float_of_int workers)
    | Some _ | None -> None
  in
  { snap with
    cache_hit_rate = (if hits +. misses <= 0. then None else Some (hits /. (hits +. misses)));
    worker_busy }

let of_running run =
  { iteration = Running.length run;
    best = Option.map snd (Running.best run);
    regret_slope = Running.regret_slope run;
    crash_rate = Running.crash_rate run;
    cache_hit_rate = None;
    worker_busy = None;
    virtual_seconds = Running.virtual_seconds run }

let of_series ?metrics ?(workers = 1) s =
  let snap = of_running (Series.running s) in
  match metrics with Some m -> with_metrics ~workers m snap | None -> snap

let to_line ?(alerts = []) ~metric snap =
  let buf = Buffer.create 96 in
  Buffer.add_string buf (Printf.sprintf "[iter %d]" snap.iteration);
  Buffer.add_string buf
    (match snap.best with
    | Some v -> Printf.sprintf " best %.3f %s" v metric.Metric.unit_name
    | None -> " best -");
  Buffer.add_string buf (Printf.sprintf " | slope %+.3g/it" snap.regret_slope);
  Buffer.add_string buf (Printf.sprintf " | crash %.0f%%" (100. *. snap.crash_rate));
  (match snap.cache_hit_rate with
  | Some r -> Buffer.add_string buf (Printf.sprintf " | cache %.0f%%" (100. *. r))
  | None -> ());
  (match snap.worker_busy with
  | Some r -> Buffer.add_string buf (Printf.sprintf " | busy %.0f%%" (100. *. r))
  | None -> ());
  Buffer.add_string buf (Printf.sprintf " | vt %s" (Obs.Summary.si snap.virtual_seconds));
  if alerts <> [] then
    Buffer.add_string buf (" | ALERT " ^ String.concat "," alerts);
  Buffer.contents buf
