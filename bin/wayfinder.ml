(* The Wayfinder command-line interface.

   Subcommands:
     run     — run a specialization job (from a YAML job file or flags)
     probe   — infer the runtime configuration space (§3.4)
     space   — describe a target's configuration space
     analyze — convergence/calibration report from a run ledger
     compare — align several ledgers' best-so-far curves per budget
     watch   — live (or one-shot) dashboard over a run ledger
     profile — span profile of a JSONL observability trace
     fsck    — validate (and repair) checkpoints, ledgers and reports *)

module S = Wayfinder_simos
module P = Wayfinder_platform
module D = Wayfinder_deeptune
module CS = Wayfinder_configspace
module K = Wayfinder_kconfig
module A = Wayfinder_analytics
module M = Wayfinder_monitor
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Targets                                                             *)
(* ------------------------------------------------------------------ *)

let target_for ~os ~app =
  match os with
  | "sim-linux" -> (
    match S.App.of_name app with
    | Some a -> Ok (P.Targets.of_sim_linux (S.Sim_linux.create ()) ~app:a)
    | None -> Error (Printf.sprintf "unknown application %S (nginx/redis/sqlite/npb)" app))
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

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

(* Build the resilience policy from the CLI flags: [--resilient] switches
   the baseline, the individual flags override single fields of it. *)
let policy_of_flags ~resilient ~retries ~build_timeout ~boot_timeout ~run_timeout
    ~measure_repeats ~quarantine_after =
  let p = if resilient then P.Resilience.default_resilient else P.Resilience.none in
  let p = match retries with Some r -> { p with P.Resilience.retries = r } | None -> p in
  let p =
    match build_timeout with
    | Some s -> { p with P.Resilience.build_timeout_s = Some s }
    | None -> p
  in
  let p =
    match boot_timeout with
    | Some s -> { p with P.Resilience.boot_timeout_s = Some s }
    | None -> p
  in
  let p =
    match run_timeout with
    | Some s -> { p with P.Resilience.run_timeout_s = Some s }
    | None -> p
  in
  let p =
    match measure_repeats with
    | Some n -> { p with P.Resilience.measure_repeats = n }
    | None -> p
  in
  match quarantine_after with
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

let exact_for fp (entry : P.Registry.t) =
  entry.P.Registry.fp.P.Registry.app = fp.P.Registry.app
  && entry.P.Registry.fp.P.Registry.space_text = fp.P.Registry.space_text

(* Staleness probe (DESIGN.md §16): a live ledger of the same workload
   votes on whether the donor's training distribution still holds.
   Drift downgrades an [auto] warm-start to a cold start — an explicit
   --warm-start KEY only warns. *)
let drift_keeps_warm ~drift_ledger ~auto (entry : P.Registry.t) =
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
        Printf.eprintf "wayfinder: %s\n%!" (A.Drift.to_string probe);
        if auto then begin
          Printf.eprintf
            "wayfinder: stale model — downgrading the auto warm-start to a cold start\n%!";
          Ok false
        end
        else begin
          Printf.eprintf
            "wayfinder: stale model — warm-starting anyway (--warm-start KEY is explicit)\n%!";
          Ok true
        end))

let resolve_warm_start ~dir ~fp ~spec ~drift_ledger space =
  let classify path (entry : P.Registry.t) ~auto =
    match drift_keeps_warm ~drift_ledger ~auto entry with
    | Error e -> Error e
    | Ok false -> Ok Cold
    | Ok true ->
      if exact_for fp entry && entry.P.Registry.model_kind = "dtm" then
        Ok (Import (path, entry))
      else if
        P.Registry.space_overlap ~donor:entry.P.Registry.fp.P.Registry.space_text
          ~target:fp.P.Registry.space_text
        > 0
      then Ok (Seed_only (path, entry))
      else if auto then Ok Cold
      else
        Error
          (Printf.sprintf "warm-start %s: donor shares no parameters with this space" path)
  in
  match spec with
  | "auto" -> (
    match P.Registry.lookup ~dir ~app:fp.P.Registry.app space with
    | [] ->
      Printf.eprintf "wayfinder: no registry donor for %s — starting cold\n%!"
        fp.P.Registry.app;
      Ok Cold
    | (path, entry, _) :: _ -> classify path entry ~auto:true)
  | key ->
    (* A key (filename stem), or a path for entries outside the registry. *)
    let path =
      if Sys.file_exists key then key else Filename.concat dir (key ^ ".model")
    in
    (match P.Registry.load path with
    | Error e -> Error (Printf.sprintf "warm-start %s: %s" path (P.Registry.error_to_string e))
    | Ok entry -> classify path entry ~auto:false)

let run_search ~job_file ~os ~app ~metric_hint ~algorithm ~iterations ~budget_s ~seed ~favor
    ~csv_path ~trace_path ~ledger_path ~progress_every ~timings ~quiet ~checkpoint
    ~checkpoint_every ~keep_checkpoints ~resume ~fault_rate ~workers ~batch ~image_cache
    ~domains ~scenario_kind ~scenario_stride ~objective_names ~weights ~pareto ~resilient
    ~retries ~build_timeout ~boot_timeout ~run_timeout ~measure_repeats ~quarantine_after
    ~registry ~save_model ~warm_start ~drift_ledger ~metrics_out ~metrics_every ~alerts =
  ignore metric_hint;
  if (save_model || warm_start <> None) && registry = None then
    Error "--save-model and --warm-start require --registry DIR"
  else if metrics_every <= 0 then Error "--metrics-every must be positive"
  else
  match
    match alerts with
    | None -> Ok []
    | Some spec -> Result.map_error (fun e -> "--alerts: " ^ e) (M.Rules.parse spec)
  with
  | Error e -> Error e
  | Ok alert_rules ->
  let job =
    match job_file with
    | Some path -> (
      try Ok (Some (CS.Jobfile.load path)) with
      | CS.Jobfile.Schema_error msg -> Error ("job file: " ^ msg)
      | Wayfinder_yamlite.Yamlite.Parse_error { line; message } ->
        Error (Printf.sprintf "job file: line %d: %s" line message))
    | None -> Ok None
  in
  match job with
  | Error e -> Error e
  | Ok job -> (
    let os = match job with Some j -> j.CS.Jobfile.os | None -> os in
    let app = match job with Some j -> j.CS.Jobfile.app | None -> app in
    let seed = match job with Some j when seed = 0 -> j.CS.Jobfile.seed | _ -> seed in
    let resume_from =
      if not resume then Ok None
      else
        match checkpoint with
        | None -> Error "--resume requires --checkpoint FILE"
        | Some path -> (
          (* The newest valid state record, past a torn append or, when
             the primary holds none, in the newest rotated generation
             that has one — a torn save must not kill the resume. *)
          match P.Checkpoint.load_latest path with
          | Ok (ck, notice) ->
            (match notice with
            | Some n -> Printf.eprintf "wayfinder: %s\n%!" (P.Checkpoint.notice_to_string n)
            | None -> ());
            Ok (Some ck)
          | Error e ->
            Error (Printf.sprintf "checkpoint %s: %s" path (P.Checkpoint.error_to_string e)))
    in
    match resume_from with
    | Error e -> Error e
    | Ok resume_from -> (
    (* A resumed run must recreate the algorithm and faults from the
       checkpointed seed — and the engine from the checkpointed worker
       count — whatever the flags say. *)
    let seed = match resume_from with Some ck -> ck.P.Checkpoint.seed | None -> seed in
    let workers =
      match resume_from with Some ck -> ck.P.Checkpoint.workers | None -> workers
    in
    (* ... and the image-cache capacity: the checkpoint's cache contents
       only restore exactly into a cache of the same size. *)
    let image_cache =
      match resume_from with
      | Some ck -> Some ck.P.Checkpoint.cache_capacity
      | None -> image_cache
    in
    let favor =
      match (favor, job) with
      | Some f, _ -> CS.Param.stage_of_string f
      | None, Some j -> j.CS.Jobfile.favor
      | None, None -> None
    in
    (* Scenario/objective setup: a trace scenario swaps the plain target
       for the trace-replay multi-objective one.  The trace is rebuilt
       from the (checkpoint-resolved) seed, so --resume with the same
       scenario flags replays the identical workload; the driver restores
       the trace cursor and Pareto archive from the checkpoint. *)
    let scenario_info =
      match scenario_kind with
      | None ->
        if objective_names <> None || weights <> None then
          Error "--objectives/--weights require --scenario"
        else Ok None
      | Some kind -> (
        match trace_for kind ~seed with
        | Error e -> Error e
        | Ok trace -> (
          let names = Option.value ~default:[ "throughput" ] objective_names in
          match P.Objective.spec_of_names names with
          | Error e -> Error e
          | Ok spec -> (
            let scalarize =
              Option.map (fun ws -> P.Scalarize.Weighted_sum (Array.of_list ws)) weights
            in
            try Ok (Some (P.Scenario.create ~stride:scenario_stride trace, spec, scalarize))
            with Invalid_argument m -> Error m)))
    in
    match scenario_info with
    | Error e -> Error e
    | Ok scenario_info -> (
    let target_result =
      match scenario_info with
      | None -> target_for ~os ~app
      | Some (sc, spec, scalarize) ->
        if os <> "sim-linux" then Error "--scenario requires --os sim-linux"
        else (
          match S.App.of_name app with
          | None -> Error (Printf.sprintf "unknown application %S (nginx/redis/sqlite/npb)" app)
          | Some a -> (
            try
              Ok
                (P.Targets.of_sim_linux_trace (S.Sim_linux.create ()) ~app:a ~scenario:sc
                   ~objectives:spec ?scalarize ())
            with Invalid_argument m -> Error m))
    in
    let target_result =
      match (target_result, job) with
      | Ok target, Some j ->
        Result.map
          (fun space -> { target with P.Target.space })
          (CS.Jobfile.restrict j target.P.Target.space)
      | result, _ -> result
    in
    match target_result with
    | Error e -> Error e
    | Ok target -> (
      (* Transient-fault injection: deterministic in (seed, trial), so a
         resumed run replays the exact same fault schedule. *)
      let target =
        if fault_rate > 0. then
          P.Target.with_faults
            ~plan:(S.Faults.create ~rates:(S.Faults.rates_of_total fault_rate) ~seed ())
            target
        else target
      in
      let budget =
        match (budget_s, iterations, job) with
        | Some s, _, _ -> P.Driver.Virtual_seconds s
        | None, Some n, _ -> P.Driver.Iterations n
        | None, None, Some { CS.Jobfile.time_budget_s = Some s; _ } -> P.Driver.Virtual_seconds s
        | None, None, Some { CS.Jobfile.iterations = Some n; _ } -> P.Driver.Iterations n
        | None, None, _ -> P.Driver.Iterations 100
      in
      match algorithm_for algorithm ~favor ~seed with
      | Error e -> Error e
      | Ok algo -> (
        let deeptune_only = match algo with `Deeptune -> true | `Plain _ | `Multi -> false in
        if (save_model || warm_start <> None) && not deeptune_only then
          Error "--save-model and --warm-start require --algorithm deeptune"
        else begin
        let deeptune_state = ref None in
        let algo_result =
          match algo with
          | `Plain a -> Ok a
          | `Deeptune -> (
            let options = { D.Deeptune.default_options with favor } in
            let space = target.P.Target.space in
            let plan =
              match (warm_start, registry) with
              | None, _ | _, None -> Ok Cold
              | Some spec, Some dir ->
                let fp = P.Registry.fingerprint ~app:target.P.Target.target_name space in
                resolve_warm_start ~dir ~fp ~spec ~drift_ledger space
            in
            match plan with
            | Error e -> Error e
            | Ok plan -> (
              let dt_result =
                match plan with
                | Cold -> Ok (D.Deeptune.create ~options ~seed space)
                | Import (path, entry) -> (
                  try
                    let model = D.Dtm.snapshot_of_floats entry.P.Registry.model in
                    let dt =
                      D.Deeptune.create_from ~options ~seed space
                        { D.Deeptune.model; incumbents = entry.P.Registry.incumbents }
                    in
                    Printf.printf
                      "warm start: imported %s (exact fingerprint, %d samples, %d \
                       incumbents)\n%!"
                      path entry.P.Registry.meta.P.Registry.samples
                      (List.length entry.P.Registry.incumbents);
                    Ok dt
                  with Invalid_argument m ->
                    Error (Printf.sprintf "warm-start %s: %s" path m))
                | Seed_only (path, entry) ->
                  let dt = D.Deeptune.create ~options ~seed space in
                  let projected = P.Registry.project_incumbents entry space in
                  D.Deeptune.seed_incumbents dt projected;
                  Printf.printf
                    "warm start: %s overlaps this space — seeding %d projected incumbents \
                     (cold model, normal warm-up)\n%!"
                    path (List.length projected);
                  Ok dt
              in
              match dt_result with
              | Error e -> Error e
              | Ok dt ->
                deeptune_state := Some dt;
                Ok (D.Deeptune.algorithm dt)))
          | `Multi -> (
            match scenario_info with
            | Some (_, spec, _) when Array.length spec >= 2 -> (
              let weights =
                match weights with
                | Some ws -> Array.of_list ws
                | None -> Array.make (Array.length spec) 1.
              in
              try
                Ok
                  (D.Deeptune.algorithm
                     (D.Deeptune.create
                        ~options:{ D.Deeptune.default_options with favor }
                        ~seed ~objectives:{ D.Deeptune.spec; weights } target.P.Target.space))
              with Invalid_argument m -> Error ("deeptune-multi: " ^ m))
            | Some _ | None ->
              Error "deeptune-multi requires --scenario with two or more --objectives")
        in
        match algo_result with
        | Error e -> Error e
        | Ok algo ->
        let progress entry =
          if not quiet then begin
            let status =
              match entry.P.History.value with
              | Some v -> Printf.sprintf "%.2f %s" v target.P.Target.metric.P.Metric.unit_name
              | None -> (
                match entry.P.History.failure with
                | Some f -> P.Failure.to_string f
                | None -> "failed")
            in
            Printf.printf "iter %3d  t=%7.0fs  %s%s\n%!" entry.P.History.index
              entry.P.History.at_seconds status
              (if entry.P.History.built then "  [built]" else "")
          end
        in
        let resilience =
          policy_of_flags ~resilient ~retries ~build_timeout ~boot_timeout ~run_timeout
            ~measure_repeats ~quarantine_after
        in
        let scenario = Option.map (fun (sc, _, _) -> sc) scenario_info in
        (* Refuse what the driver would refuse before opening any output,
           and an output whose directory is missing: the ledger would be
           truncated and the run lost by the time writing it failed. *)
        let missing_dir =
          List.find_map
            (fun (flag, path) ->
              match path with
              | Some p ->
                let dir = Filename.dirname p in
                if Sys.file_exists dir && Sys.is_directory dir then None
                else Some (Printf.sprintf "%s %s: no such directory %s" flag p dir)
              | None -> None)
            [ ("--ledger", ledger_path); ("--trace", trace_path); ("--checkpoint", checkpoint);
              ("--metrics-out", metrics_out); ("--csv", csv_path) ]
        in
        match
          match (progress_every, missing_dir) with
          | Some n, _ when n <= 0 -> Error "--progress must be positive"
          | _, Some e -> Error e
          | (Some _ | None), None -> (
            try
              let image_cache = Option.map P.Image_cache.capacity image_cache in
              P.Driver.validate ~resilience ~checkpoint_every ~checkpoint_keep:keep_checkpoints
                ?resume_from ~workers ?batch ?image_cache ?scenario ~budget ();
              Ok image_cache
            with Invalid_argument msg -> Error msg)
        with
        | Error e -> Error e
        | Ok image_cache ->
        (* A resumed run keeps the ledger rows its checkpoint covers. *)
        match
          let objectives = Option.map (fun (_, spec, _) -> Array.to_list spec) scenario_info in
          let space = target.P.Target.space and metric = target.P.Target.metric in
          try
            match (ledger_path, resume_from) with
            | None, _ -> Ok None
            | Some path, None ->
              Ok
                (Some
                   (A.Ledger.create_writer ~seed ?objectives ~algo:algorithm ~space ~metric path))
            | Some path, Some ck ->
              A.Ledger.reopen_writer ~seed ?objectives ~algo:algorithm ~space ~metric
                ~entries:ck.P.Checkpoint.entries path
              |> Result.map Option.some |> Result.map_error A.Ledger.error_to_string
          with Sys_error msg -> Error ("ledger file: " ^ msg)
        with
        | Error e -> Error e
        | Ok ledger_writer ->
        (* Observability: aggregate metrics always; stream the full JSONL
           event trace only when asked for. *)
        match
          try Ok (Option.map open_out trace_path)
          with Sys_error msg -> Error ("trace file: " ^ msg)
        with
        | Error e ->
          (match ledger_writer with Some w -> A.Ledger.close_writer w | None -> ());
          Error e
        | Ok trace_channel ->
        let obs =
          Wayfinder_obs.Recorder.create
            ?sinks:
              (Option.map (fun oc -> [ Wayfinder_obs.Sink.jsonl_channel oc ]) trace_channel)
            ()
        in
        (* Streaming monitor state: one Live_series fed one row per record
           powers the progress line, the alert rules and the Prometheus
           export in O(1) per iteration — no history rescans on the hot
           path. *)
        let live_series =
          if alert_rules = [] && metrics_out = None && progress_every = None then None
          else
            let params = CS.Space.params target.P.Target.space in
            Some
              (M.Live_series.create ~metric:target.P.Target.metric
                 ~names:(Array.map (fun (p : CS.Param.t) -> p.CS.Param.name) params)
                 ~stages:(Array.map (fun (p : CS.Param.t) -> p.CS.Param.stage) params)
                 ~objectives:
                   (match scenario_info with Some (_, spec, _) -> spec | None -> [||])
                 ())
        in
        let rules_state = M.Rules.create alert_rules in
        (* The starve rule wants the pool-busy fraction; only pay for the
           metrics snapshot when such a rule is actually installed. *)
        let wants_busy =
          List.exists (function M.Rules.Starve _ -> true | _ -> false) alert_rules
        in
        let worker_busy () =
          if (not wants_busy) || workers <= 1 then None
          else
            match
              Wayfinder_obs.Metrics.histogram
                (Wayfinder_obs.Recorder.snapshot obs)
                "driver.worker.busy"
            with
            | Some h when h.Wayfinder_obs.Metrics.count > 0 ->
              Some (Wayfinder_obs.Metrics.mean h /. float_of_int workers)
            | Some _ | None -> None
        in
        (* The scrape file is rendered here and published in the
           background: replacing a file can take tens of milliseconds,
           which the search must not wait for.  The final export, after
           a drain, is written synchronously. *)
        let metrics_publisher = P.Durable.Publisher.create () in
        let metrics_error e =
          Printf.eprintf "wayfinder: metrics export: %s\n%!" (P.Durable.io_error_to_string e)
        in
        let render_metrics () =
          let stats = Option.map M.Live_series.stats live_series in
          M.Prom.render ?stats ~snapshot:(Wayfinder_obs.Recorder.snapshot obs) ()
        in
        let export_metrics () =
          match metrics_out with
          | None -> ()
          | Some path -> (
            let text = render_metrics () in
            try P.Durable.Publisher.submit metrics_publisher ~path (fun () -> text)
            with P.Durable.Io_error e -> metrics_error e)
        in
        let drain_metrics () =
          try P.Durable.Publisher.drain metrics_publisher
          with P.Durable.Io_error e -> metrics_error e
        in
        let on_record =
          if ledger_writer = None && live_series = None then None
          else
            Some
              (fun entry belief ->
                let row = A.Ledger.row_of_entry entry belief in
                (match ledger_writer with
                | Some w -> A.Ledger.record_row w row
                | None -> ());
                match live_series with
                | None -> ()
                | Some ls -> (
                  M.Live_series.observe ls row;
                  let n = M.Live_series.length ls in
                  List.iter
                    (fun (f : M.Rules.firing) ->
                      Wayfinder_obs.Recorder.alert obs ~rule:f.M.Rules.rule
                        f.M.Rules.message;
                      Printf.eprintf "wayfinder: ALERT %s: %s\n%!" f.M.Rules.rule
                        f.M.Rules.message)
                    (M.Rules.evaluate rules_state ?worker_busy:(worker_busy ()) ls);
                  if n mod metrics_every = 0 then export_metrics ();
                  match progress_every with
                  | Some k when n mod k = 0 ->
                    let snap =
                      A.Progress.with_metrics ~workers
                        (Wayfinder_obs.Recorder.snapshot obs)
                        (M.Live_series.progress ls)
                    in
                    Printf.eprintf "%s\n%!"
                      (A.Progress.to_line
                         ~alerts:(M.Rules.active rules_state)
                         ~metric:target.P.Target.metric snap)
                  | Some _ | None -> ()))
        in
        (match resume_from with
        | Some ck ->
          Printf.printf "resuming from %s at iteration %d (t=%.0fs)\n%!"
            (Option.get checkpoint) ck.P.Checkpoint.iterations ck.P.Checkpoint.clock_seconds
        | None -> ());
        (* --domains: for the run's duration, install a pool of that many
           domains as the ambient default, so the numeric kernels (DTM
           training, candidate-pool scoring) run data-parallel.  Results
           are byte-for-byte identical to the unpooled run. *)
        let with_domains f =
          if domains <= 1 then f ()
          else
            let module Pool = Wayfinder_tensor.Domain_pool in
            let p = Pool.create domains in
            Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () ->
                Pool.with_default (Some p) f)
        in
        match
          Fun.protect ~finally:drain_metrics (fun () ->
              with_domains (fun () ->
                  P.Driver.run ~seed ~on_iteration:progress ?on_record ~obs ~resilience
                    ?checkpoint_path:checkpoint ~checkpoint_every
                    ~checkpoint_keep:keep_checkpoints ?resume_from ~workers ?batch ?image_cache
                    ?scenario ~target ~algorithm:algo ~budget ()))
        with
        | exception Invalid_argument msg ->
          (match trace_channel with Some oc -> close_out oc | None -> ());
          (match ledger_writer with Some w -> A.Ledger.close_writer w | None -> ());
          Error msg
        | exception P.Durable.Io_error e ->
          (match trace_channel with Some oc -> close_out oc | None -> ());
          (match ledger_writer with Some w -> A.Ledger.close_writer w | None -> ());
          Error (P.Durable.io_error_to_string e)
        | result ->
        (match trace_channel with
        | Some oc ->
          close_out oc;
          Printf.printf "\ntrace written to %s\n" (Option.get trace_path)
        | None -> ());
        (match ledger_writer with
        | Some w ->
          A.Ledger.close_writer w;
          Printf.printf "\nledger written to %s\n" (Option.get ledger_path)
        | None -> ());
        print_newline ();
        print_string
          (P.Report.to_text (P.Report.of_result ~algorithm ~target result));
        (match result.P.Driver.stop_reason with
        | P.Driver.Invalid_cap ->
          Printf.printf
            "  stopped early: %d consecutive invalid proposals (search is stuck)\n"
            P.Driver.default_max_consecutive_invalid
        | P.Driver.Space_exhausted ->
          Printf.printf "  stopped early: the algorithm exhausted its configuration space\n"
        | P.Driver.Budget_exhausted -> ());
        if pareto then begin
          let archive = result.P.Driver.pareto in
          let spec = target.P.Target.objective_spec in
          Printf.printf "\npareto front (%d points):\n" (P.Pareto.size archive);
          List.iter
            (fun (pt : P.Pareto.point) ->
              Printf.printf "  #%-4d %s\n" pt.P.Pareto.index
                (String.concat "  "
                   (Array.to_list
                      (Array.mapi
                         (fun i v ->
                           Printf.sprintf "%s=%.4f"
                             (if i < Array.length spec then
                                spec.(i).P.Metric.metric_name
                              else string_of_int i)
                             v)
                         pt.P.Pareto.objectives))))
            (P.Pareto.points archive)
        end;
        if timings then begin
          print_newline ();
          print_string
            (Wayfinder_obs.Summary.to_text ~title:"== observability summary"
               result.P.Driver.metrics)
        end;
        (match !deeptune_state with
        | Some dt when D.Deeptune.observations dt > 20 ->
          Printf.printf "\ntop-5 learned positive-impact parameters:\n";
          let impacts = D.Deeptune.parameter_impacts dt in
          Array.iteri
            (fun i (name, impact) ->
              if i < 5 then Printf.printf "  %+.3f %s\n" impact name)
            impacts
        | Some _ | None -> ());
        let csv_result =
          match csv_path with
          | Some path -> (
            match P.Durable.atomic_write ~path (P.History.to_csv result.P.Driver.history) with
            | Ok () ->
              Printf.printf "\nhistory written to %s\n" path;
              Ok ()
            | Error e -> Error ("history csv: " ^ P.Durable.io_error_to_string e))
          | None -> Ok ()
        in
        (* --save-model: publish the trained DeepTune model to the registry
           as a sealed fingerprint-keyed entry (atomic, one rotated
           generation kept), with the run's summary statistics as the
           training-distribution record the drift probe compares against. *)
        let save_result =
          match (save_model, registry, !deeptune_state) with
          | false, _, _ | _, None, _ | _, _, None -> Ok ()
          | true, Some dir, Some dt -> (
            let space = target.P.Target.space in
            let fp = P.Registry.fingerprint ~app:target.P.Target.target_name space in
            let series = A.Series.of_history ~space result.P.Driver.history in
            let st = A.Series.stats series in
            let transfer = D.Deeptune.export dt in
            let entry =
              { P.Registry.fp;
                meta =
                  { P.Registry.algo = algorithm;
                    seed;
                    samples = D.Deeptune.observations dt;
                    metric_name = target.P.Target.metric.P.Metric.metric_name;
                    unit_name = target.P.Target.metric.P.Metric.unit_name;
                    maximize = target.P.Target.metric.P.Metric.maximize;
                    objectives =
                      (match scenario_info with
                      | Some (_, spec, _) ->
                        Array.to_list
                          (Array.map (fun (m : P.Metric.t) -> m.P.Metric.metric_name) spec)
                      | None -> []);
                    best_value = Option.map snd st.A.Running.best;
                    mean_value = A.Running.mean_success series.A.Series.rows;
                    crash_rate = st.A.Running.crash_rate;
                    ledger = ledger_path };
                model_kind = "dtm";
                model = D.Dtm.snapshot_to_floats transfer.D.Deeptune.model;
                incumbents = transfer.D.Deeptune.incumbents;
                sealed = true }
            in
            match
              try Ok (ensure_dir dir)
              with Unix.Unix_error (e, _, arg) ->
                Error (Printf.sprintf "registry %s: %s %s" dir (Unix.error_message e) arg)
            with
            | Error e -> Error e
            | Ok () -> (
              match P.Registry.save ~keep:2 ~dir entry with
              | Ok path ->
                Printf.printf "model saved to %s (%d samples, key %s)\n" path
                  entry.P.Registry.meta.P.Registry.samples fp.P.Registry.key;
                Ok ()
              | Error e -> Error ("save-model: " ^ P.Registry.error_to_string e)))
        in
        (* Final Prometheus export, after the drain that followed the
           run: the file always ends on the completed run's numbers,
           whatever --metrics-every left behind. *)
        (match metrics_out with
        | Some path ->
          (match P.Durable.atomic_write ~path (render_metrics ()) with
          | Ok () -> ()
          | Error e -> metrics_error e);
          if not quiet then Printf.printf "metrics written to %s\n" path
        | None -> ());
        (match checkpoint with
        | Some path when not quiet -> Printf.printf "checkpoint written to %s\n" path
        | Some _ | None -> ());
        (match csv_result with Error _ as e -> e | Ok () -> save_result)
        end)))))

(* ------------------------------------------------------------------ *)
(* probe                                                               *)
(* ------------------------------------------------------------------ *)

let run_probe ~emit_job =
  let sim = S.Sim_linux.create () in
  let report = CS.Probe.probe (S.Sim_linux.sysfs sim) in
  Printf.printf "probed %d runtime parameters (%d non-numeric skipped, %d probe crashes)\n\n"
    (List.length report.CS.Probe.probed)
    (List.length report.CS.Probe.skipped)
    report.CS.Probe.crashes;
  List.iteri
    (fun i p -> if i < 20 then Format.printf "  %a@." CS.Param.pp p)
    report.CS.Probe.probed;
  if List.length report.CS.Probe.probed > 20 then
    Printf.printf "  ... (%d more)\n" (List.length report.CS.Probe.probed - 20);
  match emit_job with
  | None -> Ok ()
  | Some path ->
    let job =
      { CS.Jobfile.job_name = "probed-linux";
        os = "sim-linux";
        app = "nginx";
        metric = "throughput";
        maximize = true;
        iterations = Some 100;
        time_budget_s = None;
        seed = 0;
        favor = Some CS.Param.Runtime;
        space = CS.Space.create report.CS.Probe.probed }
    in
    let oc = open_out path in
    output_string oc (Wayfinder_yamlite.Yamlite.to_string (CS.Jobfile.to_yaml job));
    close_out oc;
    Printf.printf "\njob file written to %s\n" path;
    Ok ()

(* ------------------------------------------------------------------ *)
(* space                                                               *)
(* ------------------------------------------------------------------ *)

let run_space ~os =
  match target_for ~os ~app:"nginx" with
  | Error e -> Error e
  | Ok target ->
    let space = target.P.Target.space in
    let count stage =
      Array.fold_left
        (fun acc p -> if p.CS.Param.stage = stage then acc + 1 else acc)
        0 (CS.Space.params space)
    in
    Printf.printf "%s: %d parameters (%d compile-time, %d boot-time, %d runtime)\n" os
      (CS.Space.size space) (count CS.Param.Compile_time) (count CS.Param.Boot_time)
      (count CS.Param.Runtime);
    Printf.printf "log10(|space|) = %.1f\n\n" (CS.Space.log10_cardinality space);
    Array.iter (fun p -> Format.printf "  %a@." CS.Param.pp p) (CS.Space.params space);
    Ok ()

(* ------------------------------------------------------------------ *)
(* analyze / compare                                                   *)
(* ------------------------------------------------------------------ *)

let default_label path = Filename.remove_extension (Filename.basename path)

(* One loader for both subcommands: a ledger (self-describing) or, with
   --from-csv, a History.to_csv export plus the metric described by the
   --metric/--unit/--minimize flags. *)
let load_series ~from_csv ~salvage ~metric path =
  if from_csv then
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | contents -> (
      match A.Series.of_csv ~metric contents with
      | Ok s -> Ok (s, None)
      | Error e -> Error e)
  else if salvage then
    (* Lenient load: analyze what a torn or corrupt ledger still holds,
       reporting every dropped line to stderr. *)
    match A.Ledger.salvage path with
    | Error e -> Error (A.Ledger.error_to_string e)
    | Ok r ->
      List.iter
        (fun (d : A.Ledger.drop) ->
          Printf.eprintf "wayfinder: %s: dropped line %d (byte %d): %s\n%!" path d.A.Ledger.line
            d.A.Ledger.offset d.A.Ledger.reason)
        r.A.Ledger.dropped;
      if r.A.Ledger.dropped <> [] then
        Printf.eprintf "wayfinder: %s: salvaged %d rows (%d lines dropped)\n%!" path
          (List.length r.A.Ledger.ledger.A.Ledger.rows)
          (List.length r.A.Ledger.dropped);
      let ledger = r.A.Ledger.ledger in
      Ok (A.Series.of_ledger ledger, Some ledger.A.Ledger.meta.A.Ledger.algo)
  else
    match A.Ledger.load path with
    | Ok ledger -> Ok (A.Series.of_ledger ledger, Some ledger.A.Ledger.meta.A.Ledger.algo)
    | Error e -> Error (A.Ledger.error_to_string e)

let run_analyze ~path ~from_csv ~salvage ~json ~series_out ~prom ~epsilon ~metric_name
    ~unit_name ~minimize =
  let metric = P.Metric.make ~maximize:(not minimize) ~name:metric_name ~unit_name () in
  match load_series ~from_csv ~salvage ~metric path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok (series, algo) ->
    let report = A.Analyze.of_series ~label:(default_label path) ?algo ~epsilon series in
    if json then print_endline (A.Json.to_string (A.Analyze.to_json report))
    else print_string (A.Analyze.to_text report);
    let prom_result =
      match prom with
      | None -> Ok ()
      | Some out -> (
        match
          P.Durable.atomic_write ~path:out
            (M.Prom.render ~stats:(A.Series.stats series) ())
        with
        | Ok () ->
          if not json then Printf.printf "prometheus metrics written to %s\n" out;
          Ok ()
        | Error e -> Error ("prom file: " ^ P.Durable.io_error_to_string e))
    in
    match prom_result with
    | Error _ as e -> e
    | Ok () -> (
      match series_out with
      | None -> Ok ()
      | Some out -> (
        match P.Durable.atomic_write ~path:out (A.Analyze.series_csv series) with
        | Ok () ->
          if not json then Printf.printf "series written to %s\n" out;
          Ok ()
        | Error e -> Error ("series file: " ^ P.Durable.io_error_to_string e)))

let run_compare ~paths ~json ~budgets =
  if List.length paths < 2 then Error "compare needs at least two ledgers"
  else begin
    let runs =
      List.fold_left
        (fun acc path ->
          match acc with
          | Error _ as e -> e
          | Ok acc -> (
            match A.Ledger.load path with
            | Error e -> Error (Printf.sprintf "%s: %s" path (A.Ledger.error_to_string e))
            | Ok ledger -> Ok ((path, ledger) :: acc)))
        (Ok []) paths
    in
    match runs with
    | Error e -> Error e
    | Ok runs ->
      let runs = List.rev runs in
      (* Labels: basename, disambiguated with the ledger's algorithm name
         (then a counter) when several files share one. *)
      let labelled =
        let seen = Hashtbl.create 8 in
        List.map
          (fun (path, (ledger : A.Ledger.t)) ->
            let base = default_label path in
            let label =
              if not (Hashtbl.mem seen base) then base
              else
                let with_algo =
                  Printf.sprintf "%s[%s]" base ledger.A.Ledger.meta.A.Ledger.algo
                in
                if not (Hashtbl.mem seen with_algo) then with_algo
                else
                  let rec fresh i =
                    let candidate = Printf.sprintf "%s#%d" with_algo i in
                    if Hashtbl.mem seen candidate then fresh (i + 1) else candidate
                  in
                  fresh 2
            in
            Hashtbl.replace seen label ();
            (label, A.Series.of_ledger ledger))
          runs
      in
      (match A.Compare.make ?budgets labelled with
      | Error e -> Error e
      | Ok table ->
        if json then print_endline (A.Json.to_string (A.Compare.to_json table))
        else print_string (A.Compare.to_text table);
        Ok ())
  end

(* ------------------------------------------------------------------ *)
(* watch / profile                                                     *)
(* ------------------------------------------------------------------ *)

(* Live dashboard over a run ledger.  The Tail only ever delivers
   newline-terminated lines, so a writer killed mid-record leaves the
   torn fragment pending rather than crashing the watcher; the frame is
   a deterministic function of the rows read so far, so the final
   --follow frame on a sealed ledger equals a fresh --once on it. *)
let run_watch ~path ~follow ~interval ~alerts =
  match
    match alerts with
    | None -> Ok []
    | Some spec -> Result.map_error (fun e -> "--alerts: " ^ e) (M.Rules.parse spec)
  with
  | Error e -> Error e
  | Ok rules ->
    if interval <= 0. then Error "--interval must be positive"
    else begin
      let tail = M.Tail.create path in
      let live = ref None in
      let rules_state = ref (M.Rules.create rules) in
      let reset () =
        live := None;
        rules_state := M.Rules.create rules
      in
      (* Rows only parse once the meta line is in, so Option.get is safe. *)
      let series () =
        match !live with
        | Some ls -> ls
        | None ->
          let ls = M.Live_series.of_meta (Option.get (M.Tail.meta tail)) in
          live := Some ls;
          ls
      in
      let feed row =
        let ls = series () in
        M.Live_series.observe ls row;
        List.iter
          (fun (f : M.Rules.firing) ->
            Printf.eprintf "wayfinder: ALERT %s: %s\n%!" f.M.Rules.rule f.M.Rules.message)
          (M.Rules.evaluate !rules_state ls)
      in
      let render () =
        match M.Tail.meta tail with
        | None -> None
        | Some meta ->
          Some
            (M.Dashboard.render
               ~alerts:(M.Rules.active !rules_state)
               ~dropped:(M.Tail.dropped tail) ~seal:(M.Tail.seal tail) ~meta (series ()))
      in
      if not follow then
        (* One step reads everything the file currently holds. *)
        match M.Tail.step tail with
        | Error e -> Error (Printf.sprintf "%s: %s" path (A.Ledger.error_to_string e))
        | Ok step -> (
          List.iter feed step.M.Tail.rows;
          match render () with
          | Some frame ->
            print_string frame;
            Ok ()
          | None -> Error (Printf.sprintf "%s: no meta record yet (empty or torn ledger)" path))
      else begin
        let clear = Unix.isatty Unix.stdout in
        let rec loop last =
          match M.Tail.step tail with
          | Error e -> Error (Printf.sprintf "%s: %s" path (A.Ledger.error_to_string e))
          | Ok step ->
            if step.M.Tail.truncated then begin
              Printf.eprintf "wayfinder: %s shrank — restarting from the top\n%!" path;
              reset ()
            end;
            List.iter feed step.M.Tail.rows;
            let last =
              match render () with
              | Some frame when frame <> last ->
                if clear then print_string "\027[2J\027[H";
                print_string frame;
                flush stdout;
                frame
              | Some _ | None -> last
            in
            (* A seal is the writer's sign-off: render the final frame and
               exit rather than polling a finished run forever. *)
            if M.Tail.seal tail <> M.Tail.Unsealed then Ok ()
            else begin
              Unix.sleepf interval;
              loop last
            end
        in
        loop ""
      end
    end

let run_profile ~path ~top ~clock ~flame =
  if top <= 0 then Error "--top must be positive"
  else
    match M.Profile.load path with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok t -> (
      print_string (M.Profile.render_tree t);
      print_newline ();
      print_string (M.Profile.render_hotspots t clock ~top);
      match flame with
      | None -> Ok ()
      | Some out -> (
        match P.Durable.atomic_write ~path:out (M.Profile.flamegraph t clock) with
        | Ok () ->
          Printf.printf "flamegraph written to %s\n" out;
          Ok ()
        | Error e -> Error ("flamegraph: " ^ P.Durable.io_error_to_string e)))

(* ------------------------------------------------------------------ *)
(* fsck                                                                *)
(* ------------------------------------------------------------------ *)

let run_fsck ~paths ~repair ~json =
  match List.find_opt (fun p -> not (Sys.file_exists p)) paths with
  | Some p -> Error (Printf.sprintf "%s: no such file or directory" p)
  | None ->
    let report = A.Fsck.scan ~repair paths in
    if json then print_endline (A.Json.to_string (A.Fsck.report_json report))
    else begin
      List.iter (fun f -> print_endline (A.Fsck.finding_to_string f)) report.A.Fsck.findings;
      Printf.printf "%d artifacts scanned: %d valid, %d unsealed, %d corrupt, %d stray%s\n"
        report.A.Fsck.scanned report.A.Fsck.valid report.A.Fsck.unsealed report.A.Fsck.corrupt
        report.A.Fsck.stray
        (if repair then Printf.sprintf ", %d repaired" report.A.Fsck.repaired else "")
    end;
    if report.A.Fsck.clean then Ok () else Error "corrupt artifacts remain"

(* ------------------------------------------------------------------ *)
(* models                                                              *)
(* ------------------------------------------------------------------ *)

let model_key path = Filename.remove_extension (Filename.basename path)
let model_path ~dir key =
  if Sys.file_exists key then key else Filename.concat dir (key ^ ".model")

(* The primary entry and its rotated generations ("<key>.model",
   "<key>.model.1", …), the unit [rm]/[gc] operate on. *)
let generations_of ~dir key =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    let primary = key ^ ".model" in
    let is_gen name =
      name = primary
      ||
      let plen = String.length primary + 1 in
      String.length name > plen
      && String.sub name 0 plen = primary ^ "."
      && String.for_all
           (fun c -> c >= '0' && c <= '9')
           (String.sub name plen (String.length name - plen))
    in
    Array.to_list names |> List.filter is_gen
    |> List.map (Filename.concat dir)
    |> List.sort compare

let run_models_list ~dir =
  match P.Registry.list ~dir with
  | [] ->
    Printf.printf "no models in %s\n" dir;
    Ok ()
  | entries ->
    List.iter
      (fun (path, loaded) ->
        match loaded with
        | Ok (e : P.Registry.t) ->
          Printf.printf "%-10s %-22s %-16s %5d samples  %s%s\n" (model_key path)
            e.P.Registry.fp.P.Registry.app e.P.Registry.meta.P.Registry.algo
            e.P.Registry.meta.P.Registry.samples
            (match e.P.Registry.meta.P.Registry.best_value with
            | Some b ->
              Printf.sprintf "best %.4g %s" b e.P.Registry.meta.P.Registry.unit_name
            | None -> "no success")
            (if e.P.Registry.sealed then "" else "  [unsealed]")
        | Error err ->
          Printf.printf "%-10s corrupt — %s\n" (model_key path)
            (P.Registry.error_to_string err))
      entries;
    Ok ()

let run_models_inspect ~dir ~key =
  let path = model_path ~dir key in
  match P.Registry.load path with
  | Error e -> Error (Printf.sprintf "%s: %s" path (P.Registry.error_to_string e))
  | Ok e ->
    let m = e.P.Registry.meta in
    Printf.printf "key:        %s%s\n" e.P.Registry.fp.P.Registry.key
      (if e.P.Registry.sealed then "" else "  [unsealed]");
    Printf.printf "app:        %s\n" e.P.Registry.fp.P.Registry.app;
    Printf.printf "algorithm:  %s (seed %d)\n" m.P.Registry.algo m.P.Registry.seed;
    Printf.printf "samples:    %d\n" m.P.Registry.samples;
    Printf.printf "metric:     %s (%s, %s)\n" m.P.Registry.metric_name m.P.Registry.unit_name
      (if m.P.Registry.maximize then "maximize" else "minimize");
    if m.P.Registry.objectives <> [] then
      Printf.printf "objectives: %s\n" (String.concat ", " m.P.Registry.objectives);
    (match m.P.Registry.best_value with
    | Some b -> Printf.printf "best:       %g %s\n" b m.P.Registry.unit_name
    | None -> Printf.printf "best:       (no successful sample)\n");
    Printf.printf "mean:       %g %s\n" m.P.Registry.mean_value m.P.Registry.unit_name;
    Printf.printf "crash rate: %.0f%%\n" (100. *. m.P.Registry.crash_rate);
    (match m.P.Registry.ledger with
    | Some l -> Printf.printf "ledger:     %s\n" l
    | None -> ());
    Printf.printf "model:      %s, %d floats\n" e.P.Registry.model_kind
      (Array.length e.P.Registry.model);
    Printf.printf "incumbents: %d\n" (List.length e.P.Registry.incumbents);
    let params =
      List.length
        (List.filter
           (fun line -> String.length line >= 6 && String.sub line 0 6 = "param ")
           (String.split_on_char '\n' e.P.Registry.fp.P.Registry.space_text))
    in
    Printf.printf "space:      %d parameters\n" params;
    Ok ()

let run_models_rm ~dir ~key =
  match generations_of ~dir key with
  | [] -> Error (Printf.sprintf "no entry %s in %s" key dir)
  | files ->
    List.iter Sys.remove files;
    Printf.printf "removed %s (%d file%s)\n" key (List.length files)
      (if List.length files = 1 then "" else "s");
    Ok ()

let run_models_gc ~dir ~keep =
  if keep < 0 then Error "--keep must be >= 0"
  else begin
    let primaries = List.map fst (P.Registry.list ~dir) in
    let with_mtime = List.map (fun p -> ((Unix.stat p).Unix.st_mtime, p)) primaries in
    (* Newest first; ties broken by path so the order is deterministic. *)
    let sorted = List.sort (fun a b -> compare b a) with_mtime in
    let victims = List.filteri (fun i _ -> i >= keep) sorted in
    List.iter
      (fun (_, path) ->
        let key = model_key path in
        List.iter Sys.remove (generations_of ~dir key);
        Printf.printf "removed %s\n" key)
      victims;
    Printf.printf "%d kept, %d removed\n"
      (min keep (List.length sorted))
      (List.length victims);
    Ok ()
  end

(* ------------------------------------------------------------------ *)
(* kconfig                                                             *)
(* ------------------------------------------------------------------ *)

let run_kconfig ~version =
  match K.Synthetic.profile_for_version version with
  | None ->
    Error
      (Printf.sprintf "unknown kernel version %S (try: %s)" version
         (String.concat ", "
            (List.map (fun p -> p.K.Synthetic.version) K.Synthetic.linux_profiles)))
  | Some profile ->
    let tree = K.Synthetic.generate profile in
    Format.printf "Linux %s synthetic Kconfig: %a@." version K.Space.pp_census
      (K.Space.census tree);
    Ok ()

(* ------------------------------------------------------------------ *)
(* Cmdliner plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let handle = function
  | Ok () -> 0
  | Error msg ->
    Printf.eprintf "wayfinder: %s\n" msg;
    1

let run_cmd =
  let job_file =
    Arg.(value & opt (some file) None & info [ "job" ] ~docv:"FILE" ~doc:"YAML job file.")
  in
  let os =
    Arg.(value & opt string "sim-linux" & info [ "os" ] ~docv:"OS" ~doc:"Target OS simulator.")
  in
  (* Named app_arg: Term.app would shadow a plain [app] inside Term.(...). *)
  let app_arg =
    Arg.(value & opt string "nginx" & info [ "app" ] ~docv:"APP" ~doc:"Application under test.")
  in
  let algorithm =
    Arg.(
      value & opt string "deeptune"
      & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc:"Search algorithm.")
  in
  let iterations =
    Arg.(value & opt (some int) None & info [ "iterations"; "n" ] ~doc:"Iteration budget.")
  in
  let budget_s =
    Arg.(value & opt (some float) None & info [ "budget" ] ~doc:"Virtual time budget (seconds).")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Random seed.") in
  let favor =
    Arg.(
      value & opt (some string) None
      & info [ "favor" ] ~docv:"STAGE" ~doc:"Favor varying one stage (runtime, boot, compile).")
  in
  let csv = Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"Write history CSV.") in
  let trace =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"Write the JSONL observability trace.")
  in
  let ledger =
    Arg.(
      value & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:"Write the run ledger to $(docv): a versioned JSONL record of every iteration \
                (config, outcome, virtual timings, and the searcher's pre-evaluation beliefs) \
                that $(b,wayfinder analyze) and $(b,wayfinder compare) read.")
  in
  let progress =
    Arg.(
      value & opt (some int) None
      & info [ "progress" ] ~docv:"N"
          ~doc:"Print a one-line analytics snapshot (best, regret slope, crash rate, cache hit \
                rate, worker busyness) to stderr every $(docv) iterations.")
  in
  let timings =
    Arg.(value & flag & info [ "timings" ] ~doc:"Print the per-phase metrics summary.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No per-iteration output.") in
  let checkpoint =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Write a resumable checkpoint journal to $(docv): the run's first save writes \
                it whole, and every later save appends the rows completed since the previous \
                one plus a small state record sealed by a running CRC.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 10
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Save a checkpoint every $(docv) iterations.  A background writer appends \
                and fsyncs each save in order, so the search never waits for the disk; every \
                exit drains it, and a run that does not end on the cadence then writes its \
                final save.  After a $(b,kill -9) the newest valid record can trail the \
                newest save by the appends still queued.  An I/O error surfaces at the next \
                save or at the end of the run.")
  in
  let keep_checkpoints =
    Arg.(
      value & opt int 1
      & info [ "keep-checkpoints" ] ~docv:"N"
          ~doc:"Retain $(docv) checkpoint generations.  Only a run's first save, which \
                writes the journal whole, rotates the previous file to $(i,FILE.1), \
                $(i,FILE.2), …; later saves append to the journal, whose older state records \
                are the fallback within one run.  $(b,--resume) falls back to the newest \
                generation with a valid record only when the primary holds none.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Resume the search from the newest valid state record of the $(b,--checkpoint) \
                journal; reproduces the uninterrupted run exactly (seed and fault schedule \
                come from the checkpoint).  Bytes after that record (a torn append) are \
                dropped with a notice, and the resumed run's first save rewrites the journal \
                without them.")
  in
  let fault_rate =
    Arg.(
      value & opt float 0.
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:"Inject transient testbed faults (hung boots, flaky builds, spurious failures, \
                measurement outliers) at total probability $(docv) per evaluation.")
  in
  let workers =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:"Keep $(docv) virtual evaluation slots busy: build/boot/benchmark pipelines of \
                several configurations overlap on the discrete-event virtual clock. $(docv)=1 \
                evaluates one configuration at a time.")
  in
  let batch =
    Arg.(
      value & opt (some int) None
      & info [ "batch" ] ~docv:"K"
          ~doc:"Ask the algorithm for up to $(docv) configurations at once (native \
                $(i,propose_batch) when available). Only the first fill, before any outcome, \
                asks for more than one. Defaults to $(b,--workers).")
  in
  let image_cache =
    Arg.(
      value & opt (some int) None
      & info [ "image-cache" ] ~docv:"N"
          ~doc:"Keep up to $(docv) built images in the shared content-addressed cache (exact \
                LRU, keyed by the configuration's compile+boot projection): any worker whose \
                proposal matches a cached image skips the build phase entirely. Defaults to \
                $(b,--workers); on $(b,--resume) the capacity comes from the checkpoint.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"Run the numeric kernels (DTM training, candidate-pool scoring) data-parallel \
                on $(docv) OCaml domains (real CPU cores); evaluations stay inline, in launch \
                order. Results are byte-for-byte identical to $(docv)=1 — domains buy \
                wall-clock time, never a different answer.")
  in
  let scenario =
    Arg.(
      value & opt (some string) None
      & info [ "scenario" ] ~docv:"KIND"
          ~doc:"Drive evaluations through a trace-replay workload instead of a static \
                benchmark: $(b,flash-crowd), $(b,diurnal), $(b,ramp), $(b,steps), or the path \
                of a saved $(i,wayfinder-trace) file.  Requires $(b,--os sim-linux); on \
                $(b,--resume) pass the same scenario flags (the trace cursor and Pareto \
                archive are restored from the checkpoint).")
  in
  let scenario_stride =
    Arg.(
      value & opt int 0
      & info [ "scenario-stride" ] ~docv:"N"
          ~doc:"Advance the trace cursor by $(docv) windows per evaluation (0 = every \
                evaluation replays the same slice).")
  in
  let objectives =
    Arg.(
      value & opt (some (list string)) None
      & info [ "objectives" ] ~docv:"NAME,..."
          ~doc:"Objectives measured by the trace replay ($(b,throughput), $(b,p50), $(b,p95), \
                $(b,p99), $(b,memory)); one objective degenerates to the plain scalar search. \
                Requires $(b,--scenario).  Default: $(b,throughput).")
  in
  let weights =
    Arg.(
      value & opt (some (list float)) None
      & info [ "weights" ] ~docv:"W,..."
          ~doc:"Weighted-sum scalarization weights, aligned with $(b,--objectives) (default: \
                all 1).  A single weight of 1 with the rest 0 reproduces that objective's \
                single-objective search exactly.")
  in
  let pareto =
    Arg.(
      value & flag
      & info [ "pareto" ]
          ~doc:"Print the final Pareto archive (the non-dominated configurations over the \
                objective vectors) after the run.")
  in
  let resilient =
    Arg.(
      value & flag
      & info [ "resilient" ]
          ~doc:"Enable the default resilience policy (retries with backoff, per-phase \
                timeouts, repeated measurement, quarantine).")
  in
  let retries =
    Arg.(
      value & opt (some int) None
      & info [ "retries" ] ~docv:"N" ~doc:"Retry transient failures up to $(docv) times.")
  in
  let build_timeout =
    Arg.(
      value & opt (some float) None
      & info [ "build-timeout" ] ~docv:"S" ~doc:"Virtual build timeout in seconds.")
  in
  let boot_timeout =
    Arg.(
      value & opt (some float) None
      & info [ "boot-timeout" ] ~docv:"S" ~doc:"Virtual boot timeout in seconds.")
  in
  let run_timeout =
    Arg.(
      value & opt (some float) None
      & info [ "run-timeout" ] ~docv:"S" ~doc:"Virtual benchmark timeout in seconds.")
  in
  let measure_repeats =
    Arg.(
      value & opt (some int) None
      & info [ "measure-repeats" ] ~docv:"N"
          ~doc:"Corroborate measurements with up to $(docv) samples (median on disagreement).")
  in
  let quarantine_after =
    Arg.(
      value & opt (some int) None
      & info [ "quarantine-after" ] ~docv:"N"
          ~doc:"Quarantine a configuration after $(docv) exhausted-retry episodes (0 = off).")
  in
  let registry =
    Arg.(
      value & opt (some string) None
      & info [ "registry" ] ~docv:"DIR"
          ~doc:"Model registry directory for $(b,--save-model)/$(b,--warm-start) (created on \
                first save).  Inspect and maintain it with $(b,wayfinder models).")
  in
  let save_model =
    Arg.(
      value & flag
      & info [ "save-model" ]
          ~doc:"After the run, publish the trained DeepTune model to the registry as a sealed, \
                fingerprint-keyed entry (atomic write, one rotated generation kept) together \
                with its training metadata and incumbent configurations.")
  in
  let warm_start =
    Arg.(
      value & opt (some string) None
      & info [ "warm-start" ] ~docv:"auto|KEY"
          ~doc:"Warm-start DeepTune from a registry donor: $(b,auto) picks the best match \
                (an exact app/space fingerprint imports the model weights and skips the \
                warm-up; a mere space overlap seeds the donor's projected incumbents as first \
                proposals), an explicit $(docv) names one entry.")
  in
  let drift_ledger =
    Arg.(
      value & opt (some file) None
      & info [ "drift-ledger" ] ~docv:"FILE"
          ~doc:"Probe a recent run ledger of this workload against the donor's recorded \
                training distribution before warm-starting; detected drift downgrades \
                $(b,--warm-start auto) to a cold start with a warning.")
  in
  let metrics_out =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Export run metrics as a Prometheus text file (exposition format 0.0.4) to \
                $(docv): rendered every $(b,--metrics-every) iterations and atomically \
                replaced by a background writer, which publishes only the newest render when \
                the disk falls behind, then written once more when the run completes, so a \
                scraper never sees a torn file.  An I/O error prints a warning at the next \
                export or at the end, and the run continues.")
  in
  let metrics_every =
    Arg.(
      value & opt int 10
      & info [ "metrics-every" ] ~docv:"N"
          ~doc:"Refresh $(b,--metrics-out) every $(docv) iterations.")
  in
  let alerts =
    Arg.(
      value & opt (some string) None
      & info [ "alerts" ] ~docv:"SPEC"
          ~doc:"Evaluate alert rules after every iteration, e.g. \
                $(b,crash>0.5\\@40,stall>30,drift).  Rules: $(b,crash>P[\\@W]) (windowed crash \
                rate above the fraction $(i,P)), $(b,stall>N) (no best improvement in \
                $(i,N) iterations), $(b,starve<F) (worker pool busy below $(i,F); needs \
                $(b,--workers) > 1), $(b,drift[\\@W]) (trailing window drifts from the run's \
                first window).  Firings go to stderr and, as typed $(i,alert) events, into \
                the $(b,--trace) stream; active rules are flagged on the $(b,--progress) \
                line.")
  in
  let f job_file os app algorithm iterations budget_s seed favor csv
      (trace, ledger, progress, timings, quiet)
      ( checkpoint,
        checkpoint_every,
        keep_checkpoints,
        resume,
        fault_rate,
        workers,
        batch,
        image_cache,
        domains )
      (scenario_kind, scenario_stride, objective_names, weights, pareto)
      (resilient, retries, build_timeout, boot_timeout, run_timeout, measure_repeats,
       quarantine_after)
      (registry, save_model, warm_start, drift_ledger)
      (metrics_out, metrics_every, alerts) =
    handle
      (run_search ~job_file ~os ~app ~metric_hint:() ~algorithm ~iterations ~budget_s ~seed
         ~favor ~csv_path:csv ~trace_path:trace ~ledger_path:ledger ~progress_every:progress
         ~timings ~quiet ~checkpoint ~checkpoint_every ~keep_checkpoints ~resume ~fault_rate
         ~workers ~batch ~image_cache ~domains ~scenario_kind ~scenario_stride ~objective_names
         ~weights ~pareto ~resilient ~retries ~build_timeout ~boot_timeout
         ~run_timeout ~measure_repeats ~quarantine_after ~registry ~save_model ~warm_start
         ~drift_ledger ~metrics_out ~metrics_every ~alerts)
  in
  (* Cmdliner terms are applicative; tuple up the flag groups to keep the
     application chain readable. *)
  let tuple3 a b c = (a, b, c) in
  let tuple4 a b c d = (a, b, c, d) in
  let tuple5 a b c d e = (a, b, c, d, e) in
  let tuple7 a b c d e f g = (a, b, c, d, e, f, g) in
  let tuple9 a b c d e f g h i = (a, b, c, d, e, f, g, h, i) in
  let output_group = Term.(const tuple5 $ trace $ ledger $ progress $ timings $ quiet) in
  let checkpoint_group =
    Term.(
      const tuple9 $ checkpoint $ checkpoint_every $ keep_checkpoints $ resume $ fault_rate
      $ workers $ batch $ image_cache $ domains)
  in
  let scenario_group =
    Term.(const tuple5 $ scenario $ scenario_stride $ objectives $ weights $ pareto)
  in
  let resilience_group =
    Term.(
      const tuple7 $ resilient $ retries $ build_timeout $ boot_timeout $ run_timeout
      $ measure_repeats $ quarantine_after)
  in
  let registry_group =
    Term.(const tuple4 $ registry $ save_model $ warm_start $ drift_ledger)
  in
  let monitor_group = Term.(const tuple3 $ metrics_out $ metrics_every $ alerts) in
  let term =
    Term.(
      const f $ job_file $ os $ app_arg $ algorithm $ iterations $ budget_s $ seed $ favor $ csv
      $ output_group $ checkpoint_group $ scenario_group $ resilience_group $ registry_group
      $ monitor_group)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a specialization job") term

let probe_cmd =
  let emit = Arg.(value & opt (some string) None & info [ "emit-job" ] ~doc:"Write a job file.") in
  Cmd.v
    (Cmd.info "probe" ~doc:"Infer the runtime configuration space (the §3.4 heuristic)")
    Term.(const (fun emit_job -> handle (run_probe ~emit_job)) $ emit)

let space_cmd =
  let os = Arg.(value & opt string "sim-linux" & info [ "os" ] ~doc:"Target OS simulator.") in
  Cmd.v
    (Cmd.info "space" ~doc:"Describe a target's configuration space")
    Term.(const (fun os -> handle (run_space ~os)) $ os)

let kconfig_cmd =
  let version = Arg.(value & opt string "6.0" & info [ "kernel" ] ~doc:"Kernel version.") in
  Cmd.v
    (Cmd.info "kconfig" ~doc:"Census of a synthetic kernel Kconfig tree")
    Term.(const (fun version -> handle (run_kconfig ~version)) $ version)

let analyze_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"LEDGER" ~doc:"Run ledger (from $(b,run --ledger)) to analyze.")
  in
  let from_csv =
    Arg.(
      value & flag
      & info [ "from-csv" ]
          ~doc:"Treat $(i,LEDGER) as a history CSV (from $(b,run --csv)) instead; convergence \
                and failure-rate diagnostics only (CSV carries no configs or beliefs).")
  in
  let salvage =
    Arg.(
      value & flag
      & info [ "salvage" ]
          ~doc:"Tolerate a torn or corrupt ledger: analyze every record that still parses, \
                reporting each dropped line (with its line number, byte offset and reason) to \
                stderr.  Fails only when the header or meta line is damaged.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let series =
    Arg.(
      value & opt (some string) None
      & info [ "series" ] ~docv:"FILE"
          ~doc:"Also write the per-iteration derived series (best-so-far, simple regret, \
                windowed failure rates) as CSV to $(docv).")
  in
  let prom =
    Arg.(
      value & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:"Also write the run's summary statistics (iteration count, best, regret slope, \
                failure rates, coverage, virtual-time totals) as Prometheus gauges to \
                $(docv).")
  in
  let epsilon =
    Arg.(
      value & opt float A.Analyze.default_epsilon
      & info [ "epsilon" ] ~docv:"E"
          ~doc:"Relative threshold for the samples/virtual-time-to-within-$(docv)-of-best \
                diagnostics.")
  in
  let metric_name =
    Arg.(
      value & opt string "throughput"
      & info [ "metric" ] ~docv:"NAME" ~doc:"Metric name ($(b,--from-csv) only).")
  in
  let unit_name =
    Arg.(
      value & opt string "req/s"
      & info [ "unit" ] ~docv:"UNIT" ~doc:"Metric unit ($(b,--from-csv) only).")
  in
  let minimize =
    Arg.(
      value & flag
      & info [ "minimize" ] ~doc:"The metric is minimized ($(b,--from-csv) only).")
  in
  let f path from_csv salvage json series prom epsilon metric_name unit_name minimize =
    handle
      (run_analyze ~path ~from_csv ~salvage ~json ~series_out:series ~prom ~epsilon
         ~metric_name ~unit_name ~minimize)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Convergence, coverage and model-calibration diagnostics from a run ledger: \
          best-so-far and simple-regret series, samples-to-within-epsilon, windowed failure \
          rates, space coverage, Brier score and reliability bins for crash predictions, \
          prediction MAE and uncertainty-error rank correlation.")
    Term.(
      const f $ path $ from_csv $ salvage $ json $ series $ prom $ epsilon $ metric_name
      $ unit_name $ minimize)

let compare_cmd =
  let paths =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"LEDGER" ~doc:"Run ledgers to compare (two or more).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the table as JSON.") in
  let budgets =
    Arg.(
      value & opt (some (list int)) None
      & info [ "budgets" ] ~docv:"N,N,..."
          ~doc:"Sample budgets to align on (default: 5, 10, 25, ... clipped to the shortest \
                run).")
  in
  let f paths json budgets = handle (run_compare ~paths ~json ~budgets) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Align several runs' best-so-far curves on shared sample budgets and report the \
          winner per budget.")
    Term.(const f $ paths $ json $ budgets)

let watch_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"LEDGER" ~doc:"Run ledger (from $(b,run --ledger)) to watch.")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "follow"; "f" ]
          ~doc:"Keep polling and re-rendering as the ledger grows; exits after the frame that \
                shows the writer's $(i,fin) seal.  Without it, render one frame of the file's \
                current state and exit.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Render a single frame and exit (the default; the explicit flag rejects \
                $(b,--follow)).")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"S" ~doc:"Polling period in seconds for $(b,--follow).")
  in
  let alerts =
    Arg.(
      value & opt (some string) None
      & info [ "alerts" ] ~docv:"SPEC"
          ~doc:"Alert rules to evaluate over the tailed rows (same grammar as \
                $(b,run --alerts)); firings go to stderr, active rules into the frame.")
  in
  let f path follow once interval alerts =
    if follow && once then handle (Error "--follow and --once are mutually exclusive")
    else handle (run_watch ~path ~follow ~interval ~alerts)
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Live dashboard over a run ledger: tail the file (tolerating torn tails from a \
          writer killed mid-record), fold each completed row into streaming statistics, and \
          render best/slope/failure-rate/coverage frames until the ledger seals.  The frame \
          is a deterministic function of the ledger's semantic content, so identical runs \
          render identical frames.")
    Term.(const f $ path $ follow $ once $ interval $ alerts)

let profile_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"JSONL observability trace (from $(b,run --trace)).")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Hotspots to list.")
  in
  let clock =
    Arg.(
      value
      & opt (enum [ ("virtual", M.Profile.Virtual); ("wall", M.Profile.Wall) ])
          M.Profile.Virtual
      & info [ "clock" ] ~docv:"CLOCK"
          ~doc:"Clock for hotspot ranking and the flamegraph: $(b,virtual) (the simulated \
                testbed time) or $(b,wall).")
  in
  let flame =
    Arg.(
      value & opt (some string) None
      & info [ "flame" ] ~docv:"FILE"
          ~doc:"Write collapsed-stack lines ($(i,a;b;c value), self time in microseconds) to \
                $(docv) for flamegraph renderers.")
  in
  let f path top clock flame = handle (run_profile ~path ~top ~clock ~flame) in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Span profile of an observability trace: rebuild the phase tree from span begin/end \
          stamps, report per-phase total and self time on both the wall and the virtual \
          clock, rank hotspots by self time, and optionally emit a collapsed-stack \
          flamegraph.")
    Term.(const f $ path $ top $ clock $ flame)

let fsck_cmd =
  let paths =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:"Files or directories to check; directories are walked recursively.")
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:"Fix what can be fixed: truncate torn ledger tails to their clean prefix \
                (re-sealed; the original kept as $(i,PATH.bak)), truncate checkpoint journals \
                to their newest valid state record (the original kept as $(i,PATH.bak)), \
                quarantine journals with no valid record and corrupt registry model entries \
                to $(i,PATH.bak) so loaders skip them, and remove stray $(i,.tmp) staging \
                files.  Corrupt JSON reports are flagged but never modified.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let f paths repair json = handle (run_fsck ~paths ~repair ~json) in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Validate every durable search artifact — checkpoint journals (CRC-sealed state \
          records), run ledgers (fin seals, torn tails), JSON reports, stray staging files — \
          and exit non-zero if unrepaired corruption remains.")
    Term.(const f $ paths $ repair $ json)

let models_cmd =
  let dir p =
    Arg.(
      required & pos p (some string) None & info [] ~docv:"DIR" ~doc:"Registry directory.")
  in
  let key p =
    Arg.(
      required
      & pos p (some string) None
      & info [] ~docv:"KEY" ~doc:"Entry key (the filename stem) or a path to an entry.")
  in
  let list_cmd =
    Cmd.v
      (Cmd.info "list" ~doc:"List the registry's entries (one line each)")
      Term.(const (fun dir -> handle (run_models_list ~dir)) $ dir 0)
  in
  let inspect_cmd =
    Cmd.v
      (Cmd.info "inspect" ~doc:"Show one entry's full training metadata")
      Term.(const (fun dir key -> handle (run_models_inspect ~dir ~key)) $ dir 0 $ key 1)
  in
  let rm_cmd =
    Cmd.v
      (Cmd.info "rm" ~doc:"Remove an entry and its rotated generations")
      Term.(const (fun dir key -> handle (run_models_rm ~dir ~key)) $ dir 0 $ key 1)
  in
  let gc_cmd =
    let keep =
      Arg.(
        value & opt int 8
        & info [ "keep" ] ~docv:"N" ~doc:"Entries to retain, newest (by mtime) first.")
    in
    Cmd.v
      (Cmd.info "gc" ~doc:"Prune the registry to its $(b,--keep) newest entries")
      Term.(const (fun dir keep -> handle (run_models_gc ~dir ~keep)) $ dir 0 $ keep)
  in
  Cmd.group
    (Cmd.info "models"
       ~doc:
         "Inspect and maintain the persistent model registry written by $(b,run --save-model) \
          and read by $(b,run --warm-start).")
    [ list_cmd; inspect_cmd; rm_cmd; gc_cmd ]

let () =
  let doc = "automated operating system specialization (EuroSys'26 reproduction)" in
  let info = Cmd.info "wayfinder" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_cmd;
            probe_cmd;
            space_cmd;
            kconfig_cmd;
            analyze_cmd;
            compare_cmd;
            watch_cmd;
            profile_cmd;
            fsck_cmd;
            models_cmd ]))
