module Space = Wayfinder_configspace.Space

type t = {
  target_name : string;
  algorithm_name : string;
  iterations : int;
  virtual_seconds : float;
  crash_rate : float;
  late_crash_rate : float;
  transient_rate : float;
  retries : int;
  quarantined_configs : int;
  builds_charged : int;
  mean_decide_seconds : float;
  phase_seconds : (string * float) list;
  best : best option;
}

and best = {
  value : float;
  relative : relative option;
  found_at_iteration : int;
  found_at_seconds : float;
  changed : (string * string * string) list;
}

and relative = Ratio of float | Not_applicable

let of_result ?default ~algorithm ~target result =
  let history = result.Driver.history in
  let metric = target.Target.metric in
  let best =
    match History.best history with
    | None -> None
    | Some entry ->
      Option.map
        (fun value ->
          let relative =
            (* Guard the division exactly as Driver.best_relative_to does:
               a zero or non-finite denominator (or a non-finite best)
               must render as "n/a", never as inf/nan. *)
            Option.map
              (fun d ->
                let num, den =
                  if metric.Metric.maximize then (value, d) else (d, value)
                in
                if
                  (not (Float.is_finite num))
                  || (not (Float.is_finite den))
                  || den = 0.
                then Not_applicable
                else Ratio (num /. den))
              default
          in
          { value;
            relative;
            found_at_iteration = entry.History.index;
            found_at_seconds = entry.History.at_seconds;
            changed =
              Space.diff target.Target.space
                (Space.defaults target.Target.space)
                entry.History.config })
        entry.History.value
  in
  { target_name = target.Target.target_name;
    algorithm_name = algorithm;
    iterations = History.size history;
    virtual_seconds = History.total_eval_seconds history;
    crash_rate = History.crash_rate history;
    late_crash_rate = History.windowed_crash_rate history ~window:50;
    transient_rate = History.transient_rate history;
    retries =
      int_of_float (Wayfinder_obs.Metrics.counter result.Driver.metrics "driver.retries");
    quarantined_configs =
      int_of_float (Wayfinder_obs.Metrics.counter result.Driver.metrics "driver.quarantines");
    builds_charged = History.builds_charged history;
    mean_decide_seconds = History.mean_decide_seconds history;
    phase_seconds = Driver.phase_virtual_seconds result;
    best }

let to_text t =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "== %s specialized by %s" t.target_name t.algorithm_name;
  line "  %d iterations over %.1f virtual hours (%d image builds charged)" t.iterations
    (t.virtual_seconds /. 3600.) t.builds_charged;
  line "  crash rate %.2f overall, %.2f over the last 50 iterations" t.crash_rate
    t.late_crash_rate;
  if t.transient_rate > 0. || t.retries > 0 || t.quarantined_configs > 0 then
    line "  testbed faults: %.2f of iterations lost to transient failures, %d retries, %d \
          configs quarantined"
      t.transient_rate t.retries t.quarantined_configs;
  line "  mean decision time %.3f s per iteration" t.mean_decide_seconds;
  (let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. t.phase_seconds in
   if total > 0. then
     line "  virtual time by phase: %s"
       (String.concat " | "
          (List.map
             (fun (phase, v) ->
               Printf.sprintf "%s %.0fs (%.0f%%)" phase v (100. *. v /. total))
             t.phase_seconds)));
  (match t.best with
  | None -> line "  no valid configuration found"
  | Some b ->
    line "  best value %.2f at iteration %d (t = %.0f s)%s" b.value b.found_at_iteration
      b.found_at_seconds
      (match b.relative with
      | Some (Ratio r) -> Printf.sprintf " — %.2fx the default" r
      | Some Not_applicable -> " — n/a vs the default"
      | None -> "");
    if b.changed <> [] then begin
      line "  changed parameters (%d):" (List.length b.changed);
      List.iter (fun (name, from_v, to_v) -> line "    %s: %s -> %s" name from_v to_v) b.changed
    end);
  Buffer.contents buf
