module S = Wayfinder_simos
module P = Wayfinder_platform
module D = Wayfinder_deeptune
module CS = Wayfinder_configspace
module A = Wayfinder_analytics
module M = Wayfinder_monitor
module Obs = Wayfinder_obs

let ( let* ) = Result.bind

type hooks = { info : string -> unit; notice : string -> unit; progress : string -> unit }

let silent = { info = ignore; notice = ignore; progress = ignore }

(* ------------------------------------------------------------------ *)
(* Targets, searchers, scenarios                                       *)
(* ------------------------------------------------------------------ *)

let app_of name =
  match S.App.of_name name with
  | Some a -> Ok a
  | None -> Error (Printf.sprintf "unknown application %S (nginx/redis/sqlite/npb)" name)

let target ~os ~app =
  match os with
  | "sim-linux" ->
    Result.map (fun a -> P.Targets.of_sim_linux (S.Sim_linux.create ()) ~app:a) (app_of app)
  | "sim-linux-memory" -> (
    match S.App.of_name app with
    | Some a -> Ok (P.Targets.of_sim_linux_memory (S.Sim_linux.create ()) ~app:a)
    | None -> Error (Printf.sprintf "unknown application %S" app))
  | "sim-unikraft" -> Ok (P.Targets.of_sim_unikraft (S.Sim_unikraft.create ()))
  | "sim-riscv" -> Ok (P.Targets.of_sim_riscv (S.Sim_riscv.create ()))
  | other ->
    Error
      (Printf.sprintf "unknown OS %S (sim-linux, sim-linux-memory, sim-unikraft, sim-riscv)"
         other)

let algorithm_for name ~favor ~seed =
  match name with
  | "random" -> Ok (`Plain (P.Random_search.create ?favor ()))
  | "grid" -> Ok (`Plain (P.Grid_search.create ()))
  | "bayes" | "bayesian" -> Ok (`Plain (P.Bayes_search.create ?favor ~seed ()))
  | "deeptune" | "wayfinder" -> Ok `Deeptune
  | "deeptune-multi" -> Ok `Multi
  | other ->
    Error
      (Printf.sprintf "unknown algorithm %S (random, grid, bayes, deeptune, deeptune-multi)"
         other)

(* --scenario NAME|FILE: a built-in load shape (loads expressed against
   the trace target's nominal 1000 req/s default capacity) or a saved
   wayfinder-trace file. *)
let trace_for kind ~seed =
  if Sys.file_exists kind then
    match S.Trace.load ~path:kind with
    | Ok t -> Ok t
    | Error e -> Error (Printf.sprintf "scenario %s: %s" kind e)
  else
    match kind with
    | "flash-crowd" ->
      Ok (S.Trace.flash_crowd ~window_s:1.0 ~windows:60 ~base:500. ~peak:1400. ~at:30 ~width:10)
    | "diurnal" ->
      Ok (S.Trace.diurnal ~jitter:0.05 ~seed ~window_s:1.0 ~windows:96 ~base:300. ~peak:1200. ())
    | "ramp" -> Ok (S.Trace.ramp ~window_s:1.0 ~windows:60 ~from_load:200. ~to_load:1400.)
    | "steps" -> Ok (S.Trace.steps ~window_s:1.0 [ (20, 400.); (20, 900.); (20, 1300.) ])
    | other ->
      Error
        (Printf.sprintf
           "unknown scenario %S (flash-crowd, diurnal, ramp, steps, or a trace file)" other)

(* Scenario/objective setup: a trace scenario swaps the plain target for
   the trace-replay multi-objective one.  The trace is rebuilt from the
   (checkpoint-resolved) seed, so --resume with the same scenario flags
   replays the identical workload; the driver restores the trace cursor
   and Pareto archive from the checkpoint. *)
let scenario_of (s : Spec.t) ~seed =
  match s.scenario with
  | None ->
    if s.objectives <> None || s.weights <> None then
      Error "--objectives/--weights require --scenario"
    else Ok None
  | Some kind -> (
    let* trace = trace_for kind ~seed in
    let* objectives =
      P.Objective.spec_of_names (Option.value ~default:[ "throughput" ] s.objectives)
    in
    let scalarize =
      Option.map (fun ws -> P.Scalarize.Weighted_sum (Array.of_list ws)) s.weights
    in
    try Ok (Some (P.Scenario.create ~stride:s.scenario_stride trace, objectives, scalarize))
    with Invalid_argument m -> Error m)

let target_of (s : Spec.t) ~job ~seed scenario =
  let os = match job with Some j -> j.CS.Jobfile.os | None -> s.os in
  let app = match job with Some j -> j.CS.Jobfile.app | None -> s.app in
  let* target =
    match scenario with
    | None -> target ~os ~app
    | Some (sc, objectives, scalarize) -> (
      let* () = if os <> "sim-linux" then Error "--scenario requires --os sim-linux" else Ok () in
      let* a = app_of app in
      try
        Ok
          (P.Targets.of_sim_linux_trace (S.Sim_linux.create ()) ~app:a ~scenario:sc ~objectives
             ?scalarize ())
      with Invalid_argument m -> Error m)
  in
  let* target =
    match job with
    | Some j ->
      Result.map
        (fun space -> { target with P.Target.space })
        (CS.Jobfile.restrict j target.P.Target.space)
    | None -> Ok target
  in
  (* Transient-fault injection: deterministic in (seed, trial), so a
     resumed run replays the exact same fault schedule. *)
  if s.fault_rate > 0. then
    Ok
      (P.Target.with_faults
         ~plan:(S.Faults.create ~rates:(S.Faults.rates_of_total s.fault_rate) ~seed ())
         target)
  else Ok target

(* [--resilient] switches the baseline policy; the individual flags
   override single fields of it. *)
let resilience (s : Spec.t) =
  let p = if s.resilient then P.Resilience.default_resilient else P.Resilience.none in
  let p = match s.retries with Some r -> { p with P.Resilience.retries = r } | None -> p in
  let p =
    match s.build_timeout with
    | Some t -> { p with P.Resilience.build_timeout_s = Some t }
    | None -> p
  in
  let p =
    match s.boot_timeout with
    | Some t -> { p with P.Resilience.boot_timeout_s = Some t }
    | None -> p
  in
  let p =
    match s.run_timeout with
    | Some t -> { p with P.Resilience.run_timeout_s = Some t }
    | None -> p
  in
  let p =
    match s.measure_repeats with
    | Some n -> { p with P.Resilience.measure_repeats = n }
    | None -> p
  in
  match s.quarantine_after with
  | Some n -> { p with P.Resilience.quarantine_after = n }
  | None -> p

(* ------------------------------------------------------------------ *)
(* Model registry: warm start and save                                 *)
(* ------------------------------------------------------------------ *)

let rec ensure_dir dir =
  if not (dir = "" || dir = "." || dir = "/" || Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* How a resolved registry donor applies to this search. *)
type warm_plan =
  | Cold
  | Import of string * P.Registry.t  (** Exact fingerprint: the weights import. *)
  | Seed_only of string * P.Registry.t
      (** Space overlap only: the donor's projected incumbents seed the
          search; the model stays cold. *)

(* Staleness probe (DESIGN.md §16): a live ledger of the same workload
   votes on whether the donor's training distribution still holds.
   Drift downgrades an [auto] warm-start to a cold start — an explicit
   --warm-start KEY only warns. *)
let drift_keeps_warm ~hooks ~drift_ledger ~auto (entry : P.Registry.t) =
  match drift_ledger with
  | None -> Ok true
  | Some path -> (
    match A.Ledger.load path with
    | Error e ->
      Error (Printf.sprintf "drift ledger %s: %s" path (A.Ledger.error_to_string e))
    | Ok ledger -> (
      let probe =
        A.Drift.probe
          ~donor_crash_rate:entry.P.Registry.meta.P.Registry.crash_rate
          ~donor_mean:entry.P.Registry.meta.P.Registry.mean_value
          (A.Series.of_ledger ledger)
      in
      match probe.A.Drift.verdict with
      | A.Drift.Fresh -> Ok true
      | A.Drift.Stale _ ->
        hooks.notice (A.Drift.to_string probe);
        if auto then begin
          hooks.notice "stale model — downgrading the auto warm-start to a cold start";
          Ok false
        end
        else begin
          hooks.notice "stale model — warm-starting anyway (--warm-start KEY is explicit)";
          Ok true
        end))

let resolve_warm_start ~hooks ~dir ~fp ~key ~drift_ledger =
  let apply path (entry : P.Registry.t) quality ~auto =
    match drift_keeps_warm ~hooks ~drift_ledger ~auto entry with
    | Error e -> Error e
    | Ok false -> Ok Cold
    | Ok true -> (
      match quality with
      | Some P.Registry.Exact when entry.P.Registry.model_kind = "dtm" ->
        Ok (Import (path, entry))
      | Some (P.Registry.Exact | P.Registry.Overlap _) -> Ok (Seed_only (path, entry))
      | None ->
        Error
          (Printf.sprintf "warm-start %s: donor shares no parameters with this space" path))
  in
  match key with
  | "auto" -> (
    match P.Registry.lookup ~dir fp with
    | [] ->
      hooks.notice
        (Printf.sprintf "no registry donor for %s — starting cold" fp.P.Registry.app);
      Ok Cold
    | (path, entry, quality) :: _ -> apply path entry (Some quality) ~auto:true)
  | key -> (
    (* A key (filename stem), or a path for entries outside the registry. *)
    let path =
      if Sys.file_exists key then key else Filename.concat dir (key ^ ".model")
    in
    match P.Registry.load path with
    | Error e -> Error (Printf.sprintf "warm-start %s: %s" path (P.Registry.error_to_string e))
    | Ok entry -> apply path entry (P.Registry.classify fp entry) ~auto:false)

(* The searcher, and the DeepTune state behind it when there is one. *)
let searcher ~hooks (s : Spec.t) ~favor ~seed ~objectives (target : P.Target.t) kind =
  let options = { D.Deeptune.default_options with favor } in
  match kind with
  | `Plain a -> Ok (a, None)
  | `Deeptune ->
    let space = target.P.Target.space in
    let* warm =
      match (s.warm_start, s.registry) with
      | None, _ | _, None -> Ok Cold
      | Some key, Some dir ->
        let fp = P.Registry.fingerprint ~app:target.P.Target.target_name space in
        resolve_warm_start ~hooks ~dir ~fp ~key ~drift_ledger:s.drift_ledger
    in
    let* dt =
      match warm with
      | Cold -> Ok (D.Deeptune.create ~options ~seed space)
      | Import (path, entry) -> (
        try
          let model = D.Dtm.snapshot_of_floats entry.P.Registry.model in
          let dt =
            D.Deeptune.create_from ~options ~seed space
              { D.Deeptune.model; incumbents = entry.P.Registry.incumbents }
          in
          hooks.info
            (Printf.sprintf
               "warm start: imported %s (exact fingerprint, %d samples, %d incumbents)" path
               entry.P.Registry.meta.P.Registry.samples
               (List.length entry.P.Registry.incumbents));
          Ok dt
        with Invalid_argument m -> Error (Printf.sprintf "warm-start %s: %s" path m))
      | Seed_only (path, entry) ->
        let dt = D.Deeptune.create ~options ~seed space in
        let projected = P.Registry.project_incumbents entry space in
        D.Deeptune.seed_incumbents dt projected;
        hooks.info
          (Printf.sprintf
             "warm start: %s overlaps this space — seeding %d projected incumbents (cold \
              model, normal warm-up)"
             path (List.length projected));
        Ok dt
    in
    Ok (D.Deeptune.algorithm dt, Some dt)
  | `Multi -> (
    match objectives with
    | Some spec when Array.length spec >= 2 -> (
      let weights =
        match s.weights with
        | Some ws -> Array.of_list ws
        | None -> Array.make (Array.length spec) 1.
      in
      try
        Ok
          ( D.Deeptune.algorithm
              (D.Deeptune.create ~options ~seed ~objectives:{ D.Deeptune.spec; weights }
                 target.P.Target.space),
            None )
      with Invalid_argument m -> Error ("deeptune-multi: " ^ m))
    | Some _ | None -> Error "deeptune-multi requires --scenario with two or more --objectives"
    )

(* ------------------------------------------------------------------ *)
(* plan                                                                *)
(* ------------------------------------------------------------------ *)

type plan = {
  spec : Spec.t;
  hooks : hooks;
  seed : int;
  workers : int;
  image_cache : P.Image_cache.config option;
  resume_from : P.Checkpoint.t option;
  scenario : P.Scenario.t option;
  objectives : P.Metric.t array option;
  target : P.Target.t;
  algorithm : P.Search_algorithm.t;
  deeptune : D.Deeptune.t option;
  resilience : P.Resilience.policy;
  budget : P.Driver.budget;
  alert_rules : M.Rules.rule list;
}

let load_job = function
  | None -> Ok None
  | Some path -> (
    try Ok (Some (CS.Jobfile.load path)) with
    | CS.Jobfile.Schema_error msg -> Error ("job file: " ^ msg)
    | Wayfinder_yamlite.Yamlite.Parse_error { line; message } ->
      Error (Printf.sprintf "job file: line %d: %s" line message)
    | Sys_error msg -> Error ("job file: " ^ msg))

let load_checkpoint ~hooks (s : Spec.t) =
  if not s.resume then Ok None
  else
    match s.checkpoint with
    | None -> Error "--resume requires --checkpoint FILE"
    | Some path -> (
      (* The newest valid state record, past a torn append or, when the
         primary holds none, in the newest rotated generation that has
         one — a torn save must not kill the resume. *)
      match P.Checkpoint.load_latest path with
      | Ok (ck, notice) ->
        Option.iter (fun n -> hooks.notice (P.Checkpoint.notice_to_string n)) notice;
        Ok (Some ck)
      | Error e ->
        Error (Printf.sprintf "checkpoint %s: %s" path (P.Checkpoint.error_to_string e)))

(* An output whose directory is missing: the ledger would be truncated
   and the run lost by the time writing it failed. *)
let missing_dir (s : Spec.t) =
  List.find_map
    (fun (flag, path) ->
      match path with
      | Some p ->
        let dir = Filename.dirname p in
        if Sys.file_exists dir && Sys.is_directory dir then None
        else Some (Printf.sprintf "%s %s: no such directory %s" flag p dir)
      | None -> None)
    [ ("--ledger", s.ledger); ("--trace", s.trace); ("--checkpoint", s.checkpoint);
      ("--metrics-out", s.metrics_out); ("--csv", s.csv) ]

let plan ?(hooks = silent) (s : Spec.t) =
  let* () =
    if (s.save_model || s.warm_start <> None) && s.registry = None then
      Error "--save-model and --warm-start require --registry DIR"
    else if s.metrics_every <= 0 then Error "--metrics-every must be positive"
    else Ok ()
  in
  let* alert_rules =
    match s.alerts with
    | None -> Ok []
    | Some rules -> Result.map_error (fun e -> "--alerts: " ^ e) (M.Rules.parse rules)
  in
  let* job = load_job s.job in
  let seed = match job with Some j when s.seed = 0 -> j.CS.Jobfile.seed | _ -> s.seed in
  let* resume_from = load_checkpoint ~hooks s in
  (* A resumed run must recreate the algorithm and faults from the
     checkpointed seed, the engine from the checkpointed worker count,
     and the image cache at the checkpointed capacity (its contents only
     restore exactly into a cache of the same size), whatever the flags
     say. *)
  let seed, workers, image_cache =
    match resume_from with
    | Some ck ->
      (ck.P.Checkpoint.seed, ck.P.Checkpoint.workers, Some ck.P.Checkpoint.cache_capacity)
    | None -> (seed, s.workers, s.image_cache)
  in
  let* favor =
    match (s.favor, job) with
    | Some f, _ -> (
      match CS.Param.stage_of_string f with
      | Some stage -> Ok (Some stage)
      | None ->
        Error
          (Printf.sprintf
             "unknown stage %S in --favor (runtime/run, boot-time/boot, compile-time/compile)" f))
    | None, Some j -> Ok j.CS.Jobfile.favor
    | None, None -> Ok None
  in
  let* scenario = scenario_of s ~seed in
  let* target = target_of s ~job ~seed scenario in
  let budget =
    match (s.budget, s.iterations, job) with
    | Some b, _, _ -> P.Driver.Virtual_seconds b
    | None, Some n, _ -> P.Driver.Iterations n
    | None, None, Some { CS.Jobfile.time_budget_s = Some b; _ } -> P.Driver.Virtual_seconds b
    | None, None, Some { CS.Jobfile.iterations = Some n; _ } -> P.Driver.Iterations n
    | None, None, _ -> P.Driver.Iterations 100
  in
  let* kind = algorithm_for s.algorithm ~favor ~seed in
  let* () =
    match kind with
    | (`Plain _ | `Multi) when s.save_model || s.warm_start <> None ->
      Error "--save-model and --warm-start require --algorithm deeptune"
    | `Plain _ | `Multi | `Deeptune -> Ok ()
  in
  let objectives = Option.map (fun (_, o, _) -> o) scenario in
  let* algorithm, deeptune = searcher ~hooks s ~favor ~seed ~objectives target kind in
  let resilience = resilience s in
  let scenario = Option.map (fun (sc, _, _) -> sc) scenario in
  (* Refuse what the driver would refuse before any output opens. *)
  let* image_cache =
    match (s.progress, missing_dir s) with
    | Some n, _ when n <= 0 -> Error "--progress must be positive"
    | _, Some e -> Error e
    | (Some _ | None), None -> (
      try
        let image_cache = Option.map P.Image_cache.capacity image_cache in
        P.Driver.validate ~resilience ~checkpoint_every:s.checkpoint_every
          ~checkpoint_keep:s.keep_checkpoints ?resume_from ~workers ?batch:s.batch
          ?image_cache ?scenario ~budget ();
        Ok image_cache
      with Invalid_argument msg -> Error msg)
  in
  Ok
    { spec = s; hooks; seed; workers; image_cache; resume_from; scenario; objectives; target;
      algorithm; deeptune; resilience; budget; alert_rules }

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

type outcome = {
  target : P.Target.t;
  result : P.Driver.result;
  impacts : (string * float) array option;
  csv : (string, string) result option;
  model : (string * P.Registry.t, string) result option;
}

(* A resumed run keeps the ledger rows its checkpoint covers. *)
let open_ledger (p : plan) =
  let objectives = Option.map Array.to_list p.objectives in
  let space = p.target.P.Target.space and metric = p.target.P.Target.metric in
  let algo = p.spec.algorithm and seed = p.seed in
  try
    match (p.spec.ledger, p.resume_from) with
    | None, _ -> Ok None
    | Some path, None ->
      Ok (Some (A.Ledger.create_writer ~seed ?objectives ~algo ~space ~metric path))
    | Some path, Some ck ->
      A.Ledger.reopen_writer ~seed ?objectives ~algo ~space ~metric
        ~entries:ck.P.Checkpoint.entries path
      |> Result.map Option.some |> Result.map_error A.Ledger.error_to_string
  with Sys_error msg -> Error ("ledger file: " ^ msg)

let metrics_error hooks e = hooks.notice ("metrics export: " ^ P.Durable.io_error_to_string e)

let iteration_line (target : P.Target.t) entry =
  let status =
    match entry.P.History.value with
    | Some v -> Printf.sprintf "%.2f %s" v target.P.Target.metric.P.Metric.unit_name
    | None -> (
      match entry.P.History.failure with Some f -> P.Failure.to_string f | None -> "failed")
  in
  Printf.sprintf "iter %3d  t=%7.0fs  %s%s" entry.P.History.index entry.P.History.at_seconds
    status
    (if entry.P.History.built then "  [built]" else "")

(* The driver between the outputs' opening and closing; returns the
   result and the scrape-file renderer for the final export. *)
let search (p : plan) ~ledger ~trace =
  let s = p.spec and hooks = p.hooks and target = p.target and workers = p.workers in
  (* Observability: aggregate metrics always; stream the full JSONL event
     trace only when asked for. *)
  let obs =
    Obs.Recorder.create ?sinks:(Option.map (fun oc -> [ Obs.Sink.jsonl_channel oc ]) trace) ()
  in
  (* Streaming monitor state: one Live_series fed one row per record
     powers the progress line, the alert rules and the Prometheus export
     in O(1) per iteration — no history rescans on the hot path. *)
  let live_series =
    if p.alert_rules = [] && s.metrics_out = None && s.progress = None then None
    else
      let params = CS.Space.params target.P.Target.space in
      Some
        (M.Live_series.create ?window:(M.Rules.window p.alert_rules)
           ~metric:target.P.Target.metric
           ~names:(Array.map (fun (q : CS.Param.t) -> q.CS.Param.name) params)
           ~stages:(Array.map (fun (q : CS.Param.t) -> q.CS.Param.stage) params)
           ~objectives:(Option.value ~default:[||] p.objectives)
           ())
  in
  let rules_state = M.Rules.create p.alert_rules in
  (* The starve rule wants the pool-busy fraction; only pay for the
     metrics snapshot when such a rule is actually installed. *)
  let wants_busy = List.exists (function M.Rules.Starve _ -> true | _ -> false) p.alert_rules in
  let worker_busy () =
    if (not wants_busy) || workers <= 1 then None
    else
      match Obs.Metrics.histogram (Obs.Recorder.snapshot obs) "driver.worker.busy" with
      | Some h when h.Obs.Metrics.count > 0 ->
        Some (Obs.Metrics.mean h /. float_of_int workers)
      | Some _ | None -> None
  in
  (* The scrape file is rendered here and published in the background:
     replacing a file can take tens of milliseconds, which the search
     must not wait for.  The final export, after a drain, is written
     synchronously. *)
  let metrics_publisher = P.Durable.Publisher.create () in
  let render_metrics () =
    let stats = Option.map M.Live_series.stats live_series in
    M.Prom.render ?stats ~snapshot:(Obs.Recorder.snapshot obs) ()
  in
  let export_metrics () =
    match s.metrics_out with
    | None -> ()
    | Some path -> (
      let text = render_metrics () in
      try P.Durable.Publisher.submit metrics_publisher ~path (fun () -> text)
      with P.Durable.Io_error e -> metrics_error hooks e)
  in
  let drain_metrics () =
    try P.Durable.Publisher.drain metrics_publisher
    with P.Durable.Io_error e -> metrics_error hooks e
  in
  let on_record =
    if ledger = None && live_series = None then None
    else
      Some
        (fun entry belief ->
          let row = A.Ledger.row_of_entry entry belief in
          (match ledger with Some w -> A.Ledger.record_row w row | None -> ());
          match live_series with
          | None -> ()
          | Some ls -> (
            M.Live_series.observe ls row;
            let n = M.Live_series.length ls in
            List.iter
              (fun (f : M.Rules.firing) ->
                Obs.Recorder.alert obs ~rule:f.M.Rules.rule f.M.Rules.message;
                hooks.notice (Printf.sprintf "ALERT %s: %s" f.M.Rules.rule f.M.Rules.message))
              (M.Rules.evaluate rules_state ?worker_busy:(worker_busy ()) ls);
            if n mod s.metrics_every = 0 then export_metrics ();
            match s.progress with
            | Some k when n mod k = 0 ->
              let snap =
                A.Progress.with_metrics ~workers (Obs.Recorder.snapshot obs)
                  (M.Live_series.progress ls)
              in
              hooks.progress
                (A.Progress.to_line ~alerts:(M.Rules.active rules_state)
                   ~metric:target.P.Target.metric snap)
            | Some _ | None -> ()))
  in
  let on_iteration entry = if not s.quiet then hooks.info (iteration_line target entry) in
  Option.iter
    (fun ck ->
      hooks.info
        (Printf.sprintf "resuming from %s at iteration %d (t=%.0fs)" (Option.get s.checkpoint)
           ck.P.Checkpoint.iterations ck.P.Checkpoint.clock_seconds))
    p.resume_from;
  (* --domains: for the run's duration, install a pool of that many
     domains as the ambient default, so the numeric kernels (DTM training,
     candidate-pool scoring) run data-parallel.  Results are byte-for-byte
     identical to the unpooled run. *)
  let with_domains f =
    if s.domains <= 1 then f ()
    else
      let module Pool = Wayfinder_tensor.Domain_pool in
      let pool = Pool.create s.domains in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
          Pool.with_default (Some pool) f)
  in
  match
    Fun.protect ~finally:drain_metrics (fun () ->
        with_domains (fun () ->
            P.Driver.run ~seed:p.seed ~on_iteration ?on_record ~obs ~resilience:p.resilience
              ?checkpoint_path:s.checkpoint ~checkpoint_every:s.checkpoint_every
              ~checkpoint_keep:s.keep_checkpoints ?resume_from:p.resume_from ~workers
              ?batch:s.batch ?image_cache:p.image_cache ?scenario:p.scenario ~target
              ~algorithm:p.algorithm ~budget:p.budget ()))
  with
  | result -> Ok (result, render_metrics)
  | exception Invalid_argument msg -> Error msg
  | exception P.Durable.Io_error e -> Error (P.Durable.io_error_to_string e)

(* --save-model: publish the trained DeepTune model to the registry as a
   sealed fingerprint-keyed entry (atomic, one rotated generation kept),
   with the run's summary statistics as the training-distribution record
   the drift probe compares against. *)
let save_model (p : plan) (result : P.Driver.result) ~dir dt =
  let target = p.target in
  let space = target.P.Target.space in
  let fp = P.Registry.fingerprint ~app:target.P.Target.target_name space in
  let series = A.Series.of_history ~space result.P.Driver.history in
  let st = A.Series.stats series in
  let transfer = D.Deeptune.export dt in
  let entry =
    { P.Registry.fp;
      meta =
        { P.Registry.algo = p.spec.algorithm;
          seed = p.seed;
          samples = D.Deeptune.observations dt;
          metric_name = target.P.Target.metric.P.Metric.metric_name;
          unit_name = target.P.Target.metric.P.Metric.unit_name;
          maximize = target.P.Target.metric.P.Metric.maximize;
          objectives =
            (match p.objectives with
            | Some spec ->
              Array.to_list (Array.map (fun (m : P.Metric.t) -> m.P.Metric.metric_name) spec)
            | None -> []);
          best_value = Option.map snd st.A.Running.best;
          mean_value = A.Running.mean_success series.A.Series.rows;
          crash_rate = st.A.Running.crash_rate;
          ledger = p.spec.ledger };
      model_kind = "dtm";
      model = D.Dtm.snapshot_to_floats transfer.D.Deeptune.model;
      incumbents = transfer.D.Deeptune.incumbents;
      sealed = true }
  in
  match ensure_dir dir with
  | exception Unix.Unix_error (e, _, arg) ->
    Error (Printf.sprintf "registry %s: %s %s" dir (Unix.error_message e) arg)
  | () -> (
    match P.Registry.save ~keep:2 ~dir entry with
    | Ok path -> Ok (path, entry)
    | Error e -> Error ("save-model: " ^ P.Registry.error_to_string e))

let run (p : plan) =
  let s = p.spec in
  let* ledger = open_ledger p in
  let trace =
    try Ok (Option.map open_out s.trace) with Sys_error msg -> Error ("trace file: " ^ msg)
  in
  let searched = Result.bind trace (fun trace -> search p ~ledger ~trace) in
  (* The one cleanup path: every exit above seals the ledger and closes
     the trace. *)
  Result.iter (Option.iter close_out) trace;
  Option.iter A.Ledger.close_writer ledger;
  let* result, render_metrics = searched in
  let impacts =
    match p.deeptune with
    | Some dt when D.Deeptune.observations dt > 20 -> Some (D.Deeptune.parameter_impacts dt)
    | Some _ | None -> None
  in
  let csv =
    Option.map
      (fun path ->
        match P.Durable.atomic_write ~path (P.History.to_csv result.P.Driver.history) with
        | Ok () -> Ok path
        | Error e -> Error ("history csv: " ^ P.Durable.io_error_to_string e))
      s.csv
  in
  let model =
    match (s.save_model, s.registry, p.deeptune) with
    | true, Some dir, Some dt -> Some (save_model p result ~dir dt)
    | _, _, _ -> None
  in
  (* Final Prometheus export, after the drain that ended the run: the
     file always ends on the completed run's numbers, whatever
     --metrics-every left behind. *)
  Option.iter
    (fun path ->
      match P.Durable.atomic_write ~path (render_metrics ()) with
      | Ok () -> ()
      | Error e -> metrics_error p.hooks e)
    s.metrics_out;
  Ok { target = p.target; result; impacts; csv; model }
