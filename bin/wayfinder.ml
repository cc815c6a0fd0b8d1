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
module CS = Wayfinder_configspace
module K = Wayfinder_kconfig
module A = Wayfinder_analytics
module M = Wayfinder_monitor
module Session = Wayfinder_session.Session
module Spec = Wayfinder_session.Spec
open Cmdliner

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let hooks =
  { Session.info = print_endline;
    notice = (fun line -> Printf.eprintf "wayfinder: %s\n%!" line);
    progress = prerr_endline }

let print_outcome (spec : Spec.t) (o : Session.outcome) =
  let target = o.Session.target and result = o.Session.result in
  Option.iter (Printf.printf "\ntrace written to %s\n") spec.Spec.trace;
  Option.iter (Printf.printf "\nledger written to %s\n") spec.Spec.ledger;
  print_newline ();
  print_string
    (P.Report.to_text (P.Report.of_result ~algorithm:spec.Spec.algorithm ~target result));
  (match result.P.Driver.stop_reason with
  | P.Driver.Invalid_cap ->
    Printf.printf "  stopped early: %d consecutive invalid proposals (search is stuck)\n"
      P.Driver.default_max_consecutive_invalid
  | P.Driver.Space_exhausted ->
    Printf.printf "  stopped early: the algorithm exhausted its configuration space\n"
  | P.Driver.Budget_exhausted -> ());
  if spec.Spec.pareto then begin
    let archive = result.P.Driver.pareto in
    let objectives = target.P.Target.objective_spec in
    Printf.printf "\npareto front (%d points):\n" (P.Pareto.size archive);
    List.iter
      (fun (pt : P.Pareto.point) ->
        Printf.printf "  #%-4d %s\n" pt.P.Pareto.index
          (String.concat "  "
             (Array.to_list
                (Array.mapi
                   (fun i v ->
                     Printf.sprintf "%s=%.4f"
                       (if i < Array.length objectives then
                          objectives.(i).P.Metric.metric_name
                        else string_of_int i)
                       v)
                   pt.P.Pareto.objectives))))
      (P.Pareto.points archive)
  end;
  if spec.Spec.timings then begin
    print_newline ();
    print_string
      (Wayfinder_obs.Summary.to_text ~title:"== observability summary" result.P.Driver.metrics)
  end;
  Option.iter
    (fun impacts ->
      Printf.printf "\ntop-5 learned positive-impact parameters:\n";
      Array.iteri
        (fun i (name, impact) -> if i < 5 then Printf.printf "  %+.3f %s\n" impact name)
        impacts)
    o.Session.impacts;
  (match o.Session.csv with
  | Some (Ok path) -> Printf.printf "\nhistory written to %s\n" path
  | Some (Error _) | None -> ());
  (match o.Session.model with
  | Some (Ok (path, entry)) ->
    Printf.printf "model saved to %s (%d samples, key %s)\n" path
      entry.P.Registry.meta.P.Registry.samples entry.P.Registry.fp.P.Registry.key
  | Some (Error _) | None -> ());
  if not spec.Spec.quiet then begin
    Option.iter (Printf.printf "metrics written to %s\n") spec.Spec.metrics_out;
    Option.iter (Printf.printf "checkpoint written to %s\n") spec.Spec.checkpoint
  end;
  match (o.Session.csv, o.Session.model) with
  | Some (Error e), _ | _, Some (Error e) -> Error e
  | (Some (Ok _) | None), (Some (Ok _) | None) -> Ok ()

let run_job spec =
  match Session.plan ~hooks spec with
  | Error e -> Error e
  | Ok plan -> (
    match Session.run plan with
    | Error e -> Error e
    | Ok outcome -> print_outcome spec outcome)

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
  match Session.target ~os ~app:"nginx" with
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
          let ls =
            M.Live_series.of_meta ?window:(M.Rules.window rules) (Option.get (M.Tail.meta tail))
          in
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
  let d = Spec.default in
  let job =
    Arg.(value & opt (some file) d.job & info [ "job" ] ~docv:"FILE" ~doc:"YAML job file.")
  in
  let os =
    Arg.(value & opt string d.os & info [ "os" ] ~docv:"OS" ~doc:"Target OS simulator.")
  in
  (* Named app_arg: Term.app would shadow a plain [app] inside Term.(...). *)
  let app_arg =
    Arg.(value & opt string d.app & info [ "app" ] ~docv:"APP" ~doc:"Application under test.")
  in
  let algorithm =
    Arg.(
      value & opt string d.algorithm
      & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc:"Search algorithm.")
  in
  let iterations =
    Arg.(value & opt (some int) d.iterations & info [ "iterations"; "n" ] ~doc:"Iteration budget.")
  in
  let budget =
    Arg.(
      value & opt (some float) d.budget & info [ "budget" ] ~doc:"Virtual time budget (seconds).")
  in
  let seed = Arg.(value & opt int d.seed & info [ "seed" ] ~doc:"Random seed.") in
  let favor =
    Arg.(
      value & opt (some string) d.favor
      & info [ "favor" ] ~docv:"STAGE" ~doc:"Favor varying one stage (runtime, boot, compile).")
  in
  let csv = Arg.(value & opt (some string) d.csv & info [ "csv" ] ~doc:"Write history CSV.") in
  let trace =
    Arg.(
      value & opt (some string) d.trace
      & info [ "trace" ] ~docv:"FILE" ~doc:"Write the JSONL observability trace.")
  in
  let ledger =
    Arg.(
      value & opt (some string) d.ledger
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:"Write the run ledger to $(docv): a versioned JSONL record of every iteration \
                (config, outcome, virtual timings, and the searcher's pre-evaluation beliefs) \
                that $(b,wayfinder analyze) and $(b,wayfinder compare) read.")
  in
  let progress =
    Arg.(
      value & opt (some int) d.progress
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
      value & opt (some string) d.checkpoint
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Write a resumable checkpoint journal to $(docv): the run's first save writes \
                it whole, and every later save appends the rows completed since the previous \
                one plus a small state record sealed by a running CRC.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int d.checkpoint_every
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
      value & opt int d.keep_checkpoints
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
      value & opt float d.fault_rate
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:"Inject transient testbed faults (hung boots, flaky builds, spurious failures, \
                measurement outliers) at total probability $(docv) per evaluation.")
  in
  let workers =
    Arg.(
      value & opt int d.workers
      & info [ "workers" ] ~docv:"N"
          ~doc:"Keep $(docv) virtual evaluation slots busy: build/boot/benchmark pipelines of \
                several configurations overlap on the discrete-event virtual clock. $(docv)=1 \
                evaluates one configuration at a time.")
  in
  let batch =
    Arg.(
      value & opt (some int) d.batch
      & info [ "batch" ] ~docv:"K"
          ~doc:"Ask the algorithm for up to $(docv) configurations at once (native \
                $(i,propose_batch) when available). Only the first fill, before any outcome, \
                asks for more than one. Defaults to $(b,--workers).")
  in
  let image_cache =
    Arg.(
      value & opt (some int) d.image_cache
      & info [ "image-cache" ] ~docv:"N"
          ~doc:"Keep up to $(docv) built images in the shared content-addressed cache (exact \
                LRU, keyed by the configuration's compile+boot projection): any worker whose \
                proposal matches a cached image skips the build phase entirely. Defaults to \
                $(b,--workers); on $(b,--resume) the capacity comes from the checkpoint.")
  in
  let domains =
    Arg.(
      value & opt int d.domains
      & info [ "domains" ] ~docv:"N"
          ~doc:"Run the numeric kernels (DTM training, candidate-pool scoring) data-parallel \
                on $(docv) OCaml domains (real CPU cores); evaluations stay inline, in launch \
                order. Results are byte-for-byte identical to $(docv)=1 — domains buy \
                wall-clock time, never a different answer.")
  in
  let scenario =
    Arg.(
      value & opt (some string) d.scenario
      & info [ "scenario" ] ~docv:"KIND"
          ~doc:"Drive evaluations through a trace-replay workload instead of a static \
                benchmark: $(b,flash-crowd), $(b,diurnal), $(b,ramp), $(b,steps), or the path \
                of a saved $(i,wayfinder-trace) file.  Requires $(b,--os sim-linux); on \
                $(b,--resume) pass the same scenario flags (the trace cursor and Pareto \
                archive are restored from the checkpoint).")
  in
  let scenario_stride =
    Arg.(
      value & opt int d.scenario_stride
      & info [ "scenario-stride" ] ~docv:"N"
          ~doc:"Advance the trace cursor by $(docv) windows per evaluation (0 = every \
                evaluation replays the same slice).")
  in
  let objectives =
    Arg.(
      value & opt (some (list string)) d.objectives
      & info [ "objectives" ] ~docv:"NAME,..."
          ~doc:"Objectives measured by the trace replay ($(b,throughput), $(b,p50), $(b,p95), \
                $(b,p99), $(b,memory)); one objective degenerates to the plain scalar search. \
                Requires $(b,--scenario).  Default: $(b,throughput).")
  in
  let weights =
    Arg.(
      value & opt (some (list float)) d.weights
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
      value & opt (some int) d.retries
      & info [ "retries" ] ~docv:"N" ~doc:"Retry transient failures up to $(docv) times.")
  in
  let build_timeout =
    Arg.(
      value & opt (some float) d.build_timeout
      & info [ "build-timeout" ] ~docv:"S" ~doc:"Virtual build timeout in seconds.")
  in
  let boot_timeout =
    Arg.(
      value & opt (some float) d.boot_timeout
      & info [ "boot-timeout" ] ~docv:"S" ~doc:"Virtual boot timeout in seconds.")
  in
  let run_timeout =
    Arg.(
      value & opt (some float) d.run_timeout
      & info [ "run-timeout" ] ~docv:"S" ~doc:"Virtual benchmark timeout in seconds.")
  in
  let measure_repeats =
    Arg.(
      value & opt (some int) d.measure_repeats
      & info [ "measure-repeats" ] ~docv:"N"
          ~doc:"Corroborate measurements with up to $(docv) samples (median on disagreement).")
  in
  let quarantine_after =
    Arg.(
      value & opt (some int) d.quarantine_after
      & info [ "quarantine-after" ] ~docv:"N"
          ~doc:"Quarantine a configuration after $(docv) exhausted-retry episodes (0 = off).")
  in
  let registry =
    Arg.(
      value & opt (some string) d.registry
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
      value & opt (some string) d.warm_start
      & info [ "warm-start" ] ~docv:"auto|KEY"
          ~doc:"Warm-start DeepTune from a registry donor: $(b,auto) picks the best match \
                (an exact app/space fingerprint imports the model weights and skips the \
                warm-up; a mere space overlap seeds the donor's projected incumbents as first \
                proposals), an explicit $(docv) names one entry.")
  in
  let drift_ledger =
    Arg.(
      value & opt (some file) d.drift_ledger
      & info [ "drift-ledger" ] ~docv:"FILE"
          ~doc:"Probe a recent run ledger of this workload against the donor's recorded \
                training distribution before warm-starting; detected drift downgrades \
                $(b,--warm-start auto) to a cold start with a warning.")
  in
  let metrics_out =
    Arg.(
      value & opt (some string) d.metrics_out
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
      value & opt int d.metrics_every
      & info [ "metrics-every" ] ~docv:"N"
          ~doc:"Refresh $(b,--metrics-out) every $(docv) iterations.")
  in
  let alerts =
    Arg.(
      value & opt (some string) d.alerts
      & info [ "alerts" ] ~docv:"SPEC"
          ~doc:"Evaluate alert rules after every iteration, e.g. \
                $(b,crash>0.5@40,stall>30,drift).  Rules: $(b,crash>P[@W]) (windowed crash \
                rate above the fraction $(i,P)), $(b,stall>N) (no best improvement in \
                $(i,N) iterations), $(b,starve<F) (worker pool busy below $(i,F); needs \
                $(b,--workers) > 1), $(b,drift[@W]) (trailing window drifts from the run's \
                first window).  Firings go to stderr and, as typed $(i,alert) events, into \
                the $(b,--trace) stream; active rules are flagged on the $(b,--progress) \
                line.")
  in
  let f job os app algorithm iterations budget seed favor csv
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
      (scenario, scenario_stride, objectives, weights, pareto)
      (resilient, retries, build_timeout, boot_timeout, run_timeout, measure_repeats,
       quarantine_after)
      (registry, save_model, warm_start, drift_ledger)
      (metrics_out, metrics_every, alerts) =
    handle
      (run_job
         { Spec.job; os; app; algorithm; iterations; budget; seed; favor; csv; trace; ledger;
           progress; timings; quiet; checkpoint; checkpoint_every; keep_checkpoints; resume;
           fault_rate; workers; batch; image_cache; domains; scenario; scenario_stride;
           objectives; weights; pareto; resilient; retries; build_timeout; boot_timeout;
           run_timeout; measure_repeats; quarantine_after; registry; save_model; warm_start;
           drift_ledger; metrics_out; metrics_every; alerts })
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
      const f $ job $ os $ app_arg $ algorithm $ iterations $ budget $ seed $ favor $ csv
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
