(* [Session] in process: the refusals [wayfinder run] makes before any
   output opens, which source wins when a flag, a job file and a
   checkpoint all give a value, the registry warm start, and a resumed
   run's ledger. *)

module P = Wayfinder_platform
module A = Wayfinder_analytics
module Session = Wayfinder_session.Session
module Spec = Wayfinder_session.Spec

let base = { Spec.default with algorithm = "random"; iterations = Some 5; seed = 1; quiet = true }

let read path = In_channel.with_open_bin path In_channel.input_all
let write path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun name -> remove (Filename.concat path name)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = Filename.temp_file "wayfinder_session" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> f dir)

(* Every path under [dir] with its bytes. *)
let rec snapshot dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then (path, "<dir>") :: snapshot path
         else [ (path, read path) ])

let plan_ok ?hooks spec =
  match Session.plan ?hooks spec with
  | Ok plan -> plan
  | Error e -> Alcotest.failf "plan refused: %s" e

let run_ok ?hooks spec =
  match Session.run (plan_ok ?hooks spec) with
  | Ok outcome -> outcome
  | Error e -> Alcotest.failf "run failed: %s" e

(* The lines a run hands its hooks, tagged by hook. *)
let recording () =
  let lines = ref [] in
  let add tag line = lines := (tag ^ line) :: !lines in
  ( { Session.info = add "info: "; notice = add "notice: "; progress = add "progress: " },
    fun () -> List.rev !lines )

let rows (o : Session.outcome) = Array.length (P.History.entries o.Session.result.P.Driver.history)

let ledger_meta path =
  match A.Ledger.load path with
  | Ok ledger -> ledger.A.Ledger.meta
  | Error e -> Alcotest.failf "%s: %s" path (A.Ledger.error_to_string e)

(* A ledger's lines without the wall-clock [decide_s] and the [crc] that
   covers it. *)
let stripped path =
  String.split_on_char '\n' (read path)
  |> List.filter (( <> ) "")
  |> List.map (fun line ->
         match A.Json.parse line with
         | Ok (A.Json.Obj fields) ->
           A.Json.to_string
             (A.Json.Obj (List.filter (fun (k, _) -> k <> "decide_s" && k <> "crc") fields))
         | Ok _ | Error _ -> Alcotest.failf "%s: not a JSON object line: %s" path line)

let job ?(os = "sim-linux") ?(app = "nginx") ?(extra = "") params =
  Printf.sprintf "name: j\nos: %s\napp: %s\nmetric: throughput\n%sparams:\n%s" os app extra params

let somaxconn ~max =
  Printf.sprintf
    "  - name: net.core.somaxconn\n    type: int\n    min: 128\n    max: %d\n    default: 130\n"
    max

(* ------------------------------------------------------------------ *)
(* Refusals                                                            *)
(* ------------------------------------------------------------------ *)

(* Each refusal's spec (over [base] writing a ledger and a trace in
   [dir]) and its message. *)
let refusals =
  let registry = "--save-model and --warm-start require --registry DIR"
  and deeptune = "--save-model and --warm-start require --algorithm deeptune"
  and objectives = "--objectives/--weights require --scenario"
  and multi = "deeptune-multi requires --scenario with two or more --objectives"
  and missing flag dir = Printf.sprintf "%s %s/none/out: no such directory %s/none" flag dir dir in
  let fixed msg _ = msg in
  [ ( "--save-model without --registry",
      (fun _ s -> { s with Spec.save_model = true }),
      fixed registry );
    ( "--warm-start without --registry",
      (fun _ s -> { s with Spec.warm_start = Some "auto" }),
      fixed registry );
    ( "--save-model with random",
      (fun dir s -> { s with Spec.save_model = true; registry = Some (dir ^ "/reg") }),
      fixed deeptune );
    ( "--warm-start with random",
      (fun dir s -> { s with Spec.warm_start = Some "auto"; registry = Some (dir ^ "/reg") }),
      fixed deeptune );
    ( "--metrics-every 0",
      (fun _ s -> { s with Spec.metrics_every = 0 }),
      fixed "--metrics-every must be positive" );
    ( "--progress 0",
      (fun _ s -> { s with Spec.progress = Some 0 }),
      fixed "--progress must be positive" );
    ( "a bad --alerts spec",
      (fun _ s -> { s with Spec.alerts = Some "crash>2" }),
      fixed "--alerts: crash>2: threshold must be in [0,1]" );
    ( "a job file with a schema error",
      (fun dir s ->
        write (dir ^ "/schema.yaml")
          (job "  - name: net.core.somaxconn\n    type: integer\n    min: 1\n    max: 2\n");
        { s with Spec.job = Some (dir ^ "/schema.yaml") }),
      fixed "job file: parameter net.core.somaxconn: unknown type \"integer\"" );
    ( "a job file with a YAML error",
      (fun dir s ->
        write (dir ^ "/yaml.yaml") "name: y\nos: sim-linux\n  app: [nginx\n";
        { s with Spec.job = Some (dir ^ "/yaml.yaml") }),
      fixed "job file: line 3: unexpected indentation" );
    ( "a job range outside the simulator's",
      (fun dir s ->
        write (dir ^ "/range.yaml") (job (somaxconn ~max:70000));
        { s with Spec.job = Some (dir ^ "/range.yaml") }),
      fixed
        "job parameter net.core.somaxconn: range [128, 70000] is not inside the simulator's \
         [16, 65536]" );
    ( "a categorical job list the simulator cannot hold",
      (fun dir s ->
        write (dir ^ "/cat.yaml")
          (job
             "  - name: net.core.default_qdisc\n    type: categorical\n    values: [fq, bbr]\n    \
              default: fq\n");
        { s with Spec.job = Some (dir ^ "/cat.yaml") }),
      fixed
        "job parameter net.core.default_qdisc: values [fq, bbr] are neither one of the \
         simulator's [pfifo_fast, fq, fq_codel] nor all of them" );
    ( "--resume without --checkpoint",
      (fun _ s -> { s with Spec.resume = true }),
      fixed "--resume requires --checkpoint FILE" );
    ( "--resume with an unreadable checkpoint",
      (fun dir s ->
        write (dir ^ "/garbage.ckpt") "not a checkpoint\n";
        { s with Spec.resume = true; checkpoint = Some (dir ^ "/garbage.ckpt") }),
      fun dir -> Printf.sprintf "checkpoint %s/garbage.ckpt: not a wayfinder checkpoint" dir );
    ( "--objectives without --scenario",
      (fun _ s -> { s with Spec.objectives = Some [ "throughput"; "p99" ] }),
      fixed objectives );
    ( "--weights without --scenario",
      (fun _ s -> { s with Spec.weights = Some [ 1.; 1. ] }),
      fixed objectives );
    ( "--scenario on sim-unikraft",
      (fun _ s -> { s with Spec.scenario = Some "flash-crowd"; os = "sim-unikraft" }),
      fixed "--scenario requires --os sim-linux" );
    ( "an unknown OS",
      (fun _ s -> { s with Spec.os = "sim-foo" }),
      fixed "unknown OS \"sim-foo\" (sim-linux, sim-linux-memory, sim-unikraft, sim-riscv)" );
    ( "an unknown app",
      (fun _ s -> { s with Spec.app = "foo" }),
      fixed "unknown application \"foo\" (nginx/redis/sqlite/npb)" );
    ( "an unknown algorithm",
      (fun _ s -> { s with Spec.algorithm = "foo" }),
      fixed "unknown algorithm \"foo\" (random, grid, bayes, deeptune, deeptune-multi)" );
    ( "an unknown --favor stage",
      (fun _ s -> { s with Spec.favor = Some "bogus" }),
      fixed
        "unknown stage \"bogus\" in --favor (runtime/run, boot-time/boot, compile-time/compile)" );
    ( "an unknown scenario",
      (fun _ s -> { s with Spec.scenario = Some "foo" }),
      fixed "unknown scenario \"foo\" (flash-crowd, diurnal, ramp, steps, or a trace file)" );
    ( "deeptune-multi with one objective",
      (fun _ s ->
        { s with
          Spec.algorithm = "deeptune-multi";
          scenario = Some "flash-crowd";
          objectives = Some [ "throughput" ] }),
      fixed multi );
    ( "deeptune-multi without a scenario",
      (fun _ s -> { s with Spec.algorithm = "deeptune-multi" }),
      fixed multi );
    ( "a missing --ledger directory",
      (fun dir s -> { s with Spec.ledger = Some (dir ^ "/none/out") }),
      missing "--ledger" );
    ( "a missing --trace directory",
      (fun dir s -> { s with Spec.trace = Some (dir ^ "/none/out") }),
      missing "--trace" );
    ( "a missing --checkpoint directory",
      (fun dir s -> { s with Spec.checkpoint = Some (dir ^ "/none/out") }),
      missing "--checkpoint" );
    ( "a missing --metrics-out directory",
      (fun dir s -> { s with Spec.metrics_out = Some (dir ^ "/none/out") }),
      missing "--metrics-out" );
    ( "a missing --csv directory",
      (fun dir s -> { s with Spec.csv = Some (dir ^ "/none/out") }),
      missing "--csv" );
    ( "--workers 0",
      (fun _ s -> { s with Spec.workers = 0 }),
      fixed "Driver.run: workers must be positive" ) ]

let test_refusal (make, message) () =
  with_dir (fun dir ->
      let ledger = dir ^ "/existing.ledger.jsonl" in
      ignore (run_ok { base with Spec.ledger = Some ledger });
      let spec =
        make dir { base with Spec.ledger = Some ledger; trace = Some (dir ^ "/t.jsonl") }
      in
      let before = snapshot dir in
      (match Session.plan spec with
      | Ok _ -> Alcotest.fail "the run was not refused"
      | Error e -> Alcotest.(check string) "message" (message dir) e);
      Alcotest.(check (list (pair string string)))
        "the directory is unchanged" before (snapshot dir))

(* ------------------------------------------------------------------ *)
(* Precedence                                                          *)
(* ------------------------------------------------------------------ *)

let test_job_os_app () =
  with_dir (fun dir ->
      write (dir ^ "/j.yaml") (job ~app:"redis" (somaxconn ~max:131));
      let o =
        run_ok { base with Spec.job = Some (dir ^ "/j.yaml"); os = "sim-unikraft"; app = "nginx" }
      in
      Alcotest.(check string) "the job's target" "sim-linux/redis"
        o.Session.target.P.Target.target_name)

let test_job_seed () =
  with_dir (fun dir ->
      write (dir ^ "/j.yaml") (job ~extra:"seed: 7\n" (somaxconn ~max:131));
      let seed_of seed =
        let ledger = Printf.sprintf "%s/%d.jsonl" dir seed in
        ignore (run_ok { base with Spec.job = Some (dir ^ "/j.yaml"); seed; ledger = Some ledger });
        (ledger_meta ledger).A.Ledger.seed
      in
      Alcotest.(check (option int)) "--seed 0 takes the job's" (Some 7) (seed_of 0);
      Alcotest.(check (option int)) "--seed 3 wins" (Some 3) (seed_of 3))

let test_favor () =
  with_dir (fun dir ->
      let params =
        somaxconn ~max:65536
        ^ "  - name: isolcpus\n    type: bool\n    default: false\n\
          \  - name: threadirqs\n    type: bool\n    default: false\n"
      in
      let configs favor job_favor =
        let path = Printf.sprintf "%s/%s.yaml" dir job_favor in
        write path (job ~extra:(Printf.sprintf "favor: %s\n" job_favor) params);
        let o = run_ok { base with Spec.job = Some path; favor; iterations = Some 20 } in
        Array.map
          (fun (e : P.History.entry) -> e.P.History.config)
          (P.History.entries o.Session.result.P.Driver.history)
      in
      let runtime = configs None "runtime" in
      Alcotest.(check bool) "--favor runtime over the job's boot favors runtime" true
        (configs (Some "runtime") "boot" = runtime);
      Alcotest.(check bool) "the job's boot favor alone differs" false
        (configs None "boot" = runtime))

let test_resume_from_checkpoint () =
  with_dir (fun dir ->
      let ckpt = dir ^ "/c.ckpt" and resumed = dir ^ "/resumed.jsonl" in
      let fresh = dir ^ "/fresh.jsonl" in
      let first =
        { base with Spec.seed = 3; workers = 2; image_cache = Some 4; iterations = Some 20 }
      in
      ignore
        (run_ok
           { first with Spec.iterations = Some 10; checkpoint = Some ckpt; ledger = Some resumed });
      ignore
        (run_ok
           { base with
             Spec.seed = 9;
             iterations = Some 20;
             resume = true;
             checkpoint = Some ckpt;
             ledger = Some resumed });
      ignore (run_ok { first with Spec.ledger = Some fresh });
      Alcotest.(check (option int)) "the checkpoint's seed" (Some 3)
        (ledger_meta resumed).A.Ledger.seed;
      Alcotest.(check (list string)) "the checkpointed run, continued" (stripped fresh)
        (stripped resumed))

let test_budget () =
  with_dir (fun dir ->
      let write_job name extra =
        let path = Printf.sprintf "%s/%s.yaml" dir name in
        write path (job ~extra (somaxconn ~max:65536));
        Some path
      in
      let both = write_job "both" "iterations: 7\ntime_budget_s: 3000\n"
      and iterations = write_job "iterations" "iterations: 7\n" in
      let virtual_run (o : Session.outcome) =
        rows o > 7 && Wayfinder_simos.Vclock.now o.Session.result.P.Driver.clock >= 3000.
      in
      Alcotest.(check bool) "--budget beats -n" true
        (virtual_run (run_ok { base with Spec.budget = Some 3000.; iterations = Some 5 }));
      Alcotest.(check int) "-n beats the job's budget" 5
        (rows (run_ok { base with Spec.job = both; iterations = Some 5 }));
      Alcotest.(check bool) "the job's time_budget_s beats its iterations" true
        (virtual_run (run_ok { base with Spec.job = both; iterations = None }));
      Alcotest.(check int) "the job's iterations" 7
        (rows (run_ok { base with Spec.job = iterations; iterations = None }));
      Alcotest.(check int) "else 100 iterations" 100
        (rows (run_ok { base with Spec.iterations = None })))

(* ------------------------------------------------------------------ *)
(* Warm start                                                          *)
(* ------------------------------------------------------------------ *)

let deeptune = { base with Spec.algorithm = "deeptune"; iterations = Some 3 }

(* A registry holding one DeepTune donor for sim-linux/nginx, its key,
   and a sim-linux/nginx ledger whose crash rate has drifted. *)
let with_donor f =
  with_dir (fun dir ->
      let registry = dir ^ "/reg" in
      let o =
        run_ok
          { deeptune with
            Spec.iterations = Some 25;
            seed = 3;
            registry = Some registry;
            save_model = true }
      in
      let key =
        match o.Session.model with
        | Some (Ok (path, _)) -> Filename.remove_extension (Filename.basename path)
        | Some (Error e) -> Alcotest.failf "save-model: %s" e
        | None -> Alcotest.fail "no model saved"
      in
      let drifted = dir ^ "/drift.jsonl" in
      ignore
        (run_ok
           { base with Spec.iterations = Some 20; seed = 4; fault_rate = 0.9; ledger = Some drifted });
      f ~dir ~registry ~key ~drifted)

let warm_lines spec =
  let hooks, lines = recording () in
  ignore (plan_ok ~hooks spec);
  lines ()

let starts_with prefix line = String.starts_with ~prefix line

let test_warm_exact () =
  with_donor (fun ~dir:_ ~registry ~key:_ ~drifted:_ ->
      match
        warm_lines { deeptune with Spec.registry = Some registry; warm_start = Some "auto" }
      with
      | [ line ] -> Alcotest.(check bool) line true (starts_with "info: warm start: imported" line)
      | lines -> Alcotest.failf "lines: %s" (String.concat " | " lines))

let test_warm_overlap () =
  with_donor (fun ~dir:_ ~registry ~key ~drifted:_ ->
      match
        warm_lines
          { deeptune with Spec.app = "redis"; registry = Some registry; warm_start = Some key }
      with
      | [ line ] ->
        Alcotest.(check bool) line true
          (starts_with (Printf.sprintf "info: warm start: %s/%s.model overlaps" registry key) line)
      | lines -> Alcotest.failf "lines: %s" (String.concat " | " lines))

let test_warm_no_overlap () =
  with_donor (fun ~dir:_ ~registry ~key ~drifted:_ ->
      match
        Session.plan
          { deeptune with
            Spec.os = "sim-unikraft";
            registry = Some registry;
            warm_start = Some key }
      with
      | Ok _ -> Alcotest.fail "a donor sharing no parameters was accepted"
      | Error e ->
        Alcotest.(check string) "message"
          (Printf.sprintf "warm-start %s/%s.model: donor shares no parameters with this space"
             registry key)
          e)

let test_warm_cold () =
  with_donor (fun ~dir ~registry ~key:_ ~drifted ->
      Sys.mkdir (dir ^ "/empty") 0o755;
      Alcotest.(check (list string)) "no donor"
        [ "notice: no registry donor for sim-linux/nginx — starting cold" ]
        (warm_lines
           { deeptune with Spec.registry = Some (dir ^ "/empty"); warm_start = Some "auto" });
      match
        warm_lines
          { deeptune with
            Spec.registry = Some registry;
            warm_start = Some "auto";
            drift_ledger = Some drifted }
      with
      | [ probe; verdict ] ->
        Alcotest.(check bool) probe true (starts_with "notice: drift probe" probe);
        Alcotest.(check string) "drift"
          "notice: stale model — downgrading the auto warm-start to a cold start" verdict
      | lines -> Alcotest.failf "lines: %s" (String.concat " | " lines))

let test_warm_explicit_drift () =
  with_donor (fun ~dir:_ ~registry ~key ~drifted ->
      match
        warm_lines
          { deeptune with
            Spec.registry = Some registry;
            warm_start = Some key;
            drift_ledger = Some drifted }
      with
      | [ _probe; verdict; import ] ->
        Alcotest.(check string) "warns"
          "notice: stale model — warm-starting anyway (--warm-start KEY is explicit)" verdict;
        Alcotest.(check bool) import true (starts_with "info: warm start: imported" import)
      | lines -> Alcotest.failf "lines: %s" (String.concat " | " lines))

(* ------------------------------------------------------------------ *)
(* Resume                                                              *)
(* ------------------------------------------------------------------ *)

let test_resume_keeps_the_ledger () =
  with_dir (fun dir ->
      let ckpt = dir ^ "/c.ckpt" and resumed = dir ^ "/resumed.jsonl" in
      let fresh = dir ^ "/fresh.jsonl" in
      let spec = { deeptune with Spec.iterations = Some 60 } in
      ignore
        (run_ok
           { spec with Spec.iterations = Some 25; checkpoint = Some ckpt; ledger = Some resumed });
      let hooks, lines = recording () in
      ignore
        (run_ok ~hooks
           { spec with Spec.resume = true; checkpoint = Some ckpt; ledger = Some resumed });
      (match lines () with
      | [ line ] ->
        Alcotest.(check bool) line true
          (starts_with (Printf.sprintf "info: resuming from %s at iteration 25 (t=" ckpt) line)
      | lines -> Alcotest.failf "lines: %s" (String.concat " | " lines));
      ignore (run_ok { spec with Spec.ledger = Some fresh });
      (match A.Ledger.load resumed with
      | Ok ledger -> Alcotest.(check int) "rows" 60 (List.length ledger.A.Ledger.rows)
      | Error e -> Alcotest.fail (A.Ledger.error_to_string e));
      Alcotest.(check (list string)) "the uninterrupted ledger" (stripped fresh) (stripped resumed))

(* The driver refuses a replay only once the outputs are open: the
   cleanup path still seals the ledger. *)
let test_diverging_resume_seals_the_ledger () =
  with_dir (fun dir ->
      let ckpt = dir ^ "/c.ckpt" and ledger = dir ^ "/l.jsonl" in
      ignore
        (run_ok
           { base with Spec.iterations = Some 10; checkpoint = Some ckpt; ledger = Some ledger });
      let resume =
        { base with
          Spec.favor = Some "runtime";
          iterations = Some 20;
          resume = true;
          checkpoint = Some ckpt;
          ledger = Some ledger;
          trace = Some (dir ^ "/t.jsonl") }
      in
      match Session.run (plan_ok resume) with
      | Ok _ -> Alcotest.fail "a diverging replay ran"
      | Error e -> (
        Alcotest.(check string) "message"
          "Driver.run: resume replay diverged at iteration 0 (different algorithm, seed or \
           options than the checkpointed run?)"
          e;
        match A.Ledger.load ledger with
        | Ok l ->
          Alcotest.(check bool) "sealed" true l.A.Ledger.sealed;
          Alcotest.(check int) "the checkpoint's rows" 10 (List.length l.A.Ledger.rows)
        | Error e -> Alcotest.fail (A.Ledger.error_to_string e)))

let () =
  Alcotest.run "session"
    [ ( "refusals",
        List.map
          (fun (name, make, message) ->
            Alcotest.test_case name `Quick (test_refusal (make, message)))
          refusals );
      ( "precedence",
        [ Alcotest.test_case "the job's os and app" `Quick test_job_os_app;
          Alcotest.test_case "the job's seed only at --seed 0" `Quick test_job_seed;
          Alcotest.test_case "--favor beats the job's" `Quick test_favor;
          Alcotest.test_case "resume takes seed, workers and cache from the checkpoint" `Quick
            test_resume_from_checkpoint;
          Alcotest.test_case "budget" `Quick test_budget ] );
      ( "warm start",
        [ Alcotest.test_case "exact fingerprint imports" `Quick test_warm_exact;
          Alcotest.test_case "overlap seeds incumbents" `Quick test_warm_overlap;
          Alcotest.test_case "explicit key without overlap is refused" `Quick test_warm_no_overlap;
          Alcotest.test_case "auto starts cold without a donor or under drift" `Quick test_warm_cold;
          Alcotest.test_case "explicit key under drift stays warm" `Quick test_warm_explicit_drift ] );
      ( "resume",
        [ Alcotest.test_case "a resumed ledger equals the uninterrupted one" `Quick
            test_resume_keeps_the_ledger;
          Alcotest.test_case "a diverging replay seals the ledger" `Quick
            test_diverging_resume_seals_the_ledger ] ) ]
