(* The fault-tolerant evaluation pipeline: fault injection determinism,
   per-phase timeouts, retry with backoff, outlier rejection, quarantine,
   and checkpoint/resume reproducibility. *)

open Wayfinder_platform
module S = Wayfinder_simos
module Faults = S.Faults
module D = Wayfinder_deeptune
module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Obs = Wayfinder_obs

(* ------------------------------------------------------------------ *)
(* Test targets                                                        *)
(* ------------------------------------------------------------------ *)

let toy_space () = Space.create [ Param.int_param "x" ~lo:0 ~hi:12 ~default:3 ]

(* Maximise -(x-7)² + 100; crash deterministically when x > 9. *)
let toy_target () =
  Target.make ~name:"toy" ~space:(toy_space ()) ~metric:Metric.throughput
    (fun ~trial config ->
      ignore trial;
      match config.(0) with
      | Param.Vint x when x > 9 ->
        { Target.value = Error Failure.Runtime_crash; build_s = 10.; boot_s = 1.; run_s = 2.; objectives = [||] }
      | Param.Vint x ->
        let v = 100. -. float_of_int ((x - 7) * (x - 7)) in
        { Target.value = Ok v; build_s = 10.; boot_s = 1.; run_s = 5.; objectives = [||] }
      | Param.Vbool _ | Param.Vtristate _ | Param.Vcat _ ->
        { Target.value = Error (Failure.Other "invalid"); build_s = 0.; boot_s = 0.; run_s = 0.; objectives = [||] })

(* A target whose outcome is scripted per trial number. *)
let scripted ?(build_s = 10.) ?(boot_s = 1.) ?(run_s = 5.) f =
  let space = toy_space () in
  Target.make ~name:"scripted" ~space ~metric:Metric.throughput (fun ~trial config ->
      ignore config;
      { Target.value = f trial; build_s; boot_s; run_s; objectives = [||] })

let constant_proposal_algo () =
  Search_algorithm.make ~name:"const" ~propose:(fun _ -> [| Param.Vint 3 |]) ()

let frozen_obs () = Obs.Recorder.create ~now:(fun () -> 0.) ()

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)
(* ------------------------------------------------------------------ *)

let prop_fault_schedule_deterministic =
  QCheck2.Test.make ~name:"same seed, same fault schedule" ~count:30
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let plan () = Faults.create ~rates:(Faults.rates_of_total 0.5) ~seed () in
      let a = plan () and b = plan () in
      let ok = ref true in
      for trial = 0 to 199 do
        if Faults.draw a ~trial <> Faults.draw b ~trial then ok := false
      done;
      !ok)

let test_fault_rates_zero_and_full () =
  let never = Faults.create ~rates:Faults.zero_rates ~seed:1 () in
  let always = Faults.create ~rates:(Faults.rates_of_total 1.0) ~seed:1 () in
  for trial = 0 to 499 do
    Alcotest.(check bool) "zero rates never fault" true (Faults.draw never ~trial = None);
    Alcotest.(check bool) "total rate 1 always faults" true (Faults.draw always ~trial <> None)
  done

let test_fault_rate_frequency () =
  let plan = Faults.create ~rates:(Faults.rates_of_total 0.3) ~seed:7 () in
  let hits = ref 0 in
  let n = 3000 in
  for trial = 0 to n - 1 do
    if Faults.draw plan ~trial <> None then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "empirical rate %.3f near 0.3" freq)
    true
    (freq > 0.25 && freq < 0.35)

let test_fault_rates_validated () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative total rejected" true
    (raises (fun () -> Faults.rates_of_total (-0.1)));
  Alcotest.(check bool) "total above 1 rejected" true
    (raises (fun () -> Faults.rates_of_total 1.5));
  Alcotest.(check bool) "negative stall rejected" true
    (raises (fun () -> Faults.create ~hang_stall_s:(-1.) ~seed:0 ()))

let test_with_faults_passthrough_on_deterministic_failure () =
  (* Faults only strike successful evaluations: a config-caused crash must
     reach the driver (and the crash-gating) untouched. *)
  let target =
    scripted (fun _ -> Error Failure.Runtime_crash)
  in
  let plan = Faults.create ~rates:(Faults.rates_of_total 1.0) ~seed:3 () in
  let faulty = Target.with_faults ~plan target in
  for trial = 0 to 49 do
    let r = faulty.Target.evaluate ~trial [| Param.Vint 3 |] in
    Alcotest.(check bool) "deterministic failure untouched" true
      (r.Target.value = Error Failure.Runtime_crash)
  done

(* ------------------------------------------------------------------ *)
(* Failure taxonomy                                                    *)
(* ------------------------------------------------------------------ *)

let test_failure_string_roundtrip () =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" (Failure.to_string f))
        true
        (Failure.of_string (Failure.to_string f) = f))
    Failure.all_named;
  Alcotest.(check bool) "unknown string becomes Other" true
    (Failure.of_string "weird-thing" = Failure.Other "weird-thing")

let test_failure_classes () =
  Alcotest.(check bool) "build failure is a crash" true
    (Failure.counts_as_crash Failure.Build_failure);
  Alcotest.(check bool) "flaky build is not a crash" false
    (Failure.counts_as_crash Failure.Flaky_build);
  Alcotest.(check bool) "boot timeout is not a crash" false
    (Failure.counts_as_crash Failure.Boot_timeout);
  Alcotest.(check bool) "spurious failure retryable" true
    (Failure.retryable Failure.Spurious_failure);
  Alcotest.(check bool) "quarantined not retryable" false
    (Failure.retryable Failure.Quarantined);
  Alcotest.(check bool) "runtime crash not retryable" false
    (Failure.retryable Failure.Runtime_crash)

(* ------------------------------------------------------------------ *)
(* Resilience policy                                                   *)
(* ------------------------------------------------------------------ *)

let test_backoff_growth_and_cap () =
  let p = Resilience.default_resilient in
  Alcotest.(check (float 1e-9)) "first backoff" 30. (Resilience.backoff_s p ~attempt:0);
  Alcotest.(check (float 1e-9)) "doubles" 60. (Resilience.backoff_s p ~attempt:1);
  Alcotest.(check (float 1e-9)) "caps at max" 600. (Resilience.backoff_s p ~attempt:5)

let test_policy_validation () =
  let raises p = try Resilience.validate p; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative retries" true
    (raises { Resilience.none with Resilience.retries = -1 });
  Alcotest.(check bool) "zero repeats" true
    (raises { Resilience.none with Resilience.measure_repeats = 0 });
  Alcotest.(check bool) "non-positive timeout" true
    (raises { Resilience.none with Resilience.boot_timeout_s = Some 0. });
  Alcotest.(check bool) "default policies valid" true
    (Resilience.validate Resilience.none;
     Resilience.validate Resilience.default_resilient;
     true)

let test_disagreement () =
  Alcotest.(check (float 1e-9)) "singleton" 0. (Resilience.disagreement [| 10. |]);
  Alcotest.(check (float 1e-9)) "agreement" 0. (Resilience.disagreement [| 10.; 10. |]);
  Alcotest.(check (float 1e-9)) "outlier dominates" 1.
    (Resilience.disagreement [| 10.; 20.; 10. |])

(* ------------------------------------------------------------------ *)
(* Driver: timeouts, retry, outlier rejection, quarantine              *)
(* ------------------------------------------------------------------ *)

let test_boot_timeout_caps_hang () =
  (* A 10000 s boot stall is cut at the 120 s cap instead of blowing up
     the virtual clock. *)
  let target = scripted ~build_s:5. ~boot_s:10_000. ~run_s:3. (fun _ -> Ok 1.) in
  let policy = { Resilience.none with Resilience.boot_timeout_s = Some 120. } in
  let r =
    Driver.run ~seed:1 ~resilience:policy ~target ~algorithm:(constant_proposal_algo ())
      ~budget:(Driver.Iterations 1) ()
  in
  let e = (History.entries r.Driver.history).(0) in
  Alcotest.(check bool) "boot timeout recorded" true
    (e.History.failure = Some Failure.Boot_timeout);
  (* build 5 + capped boot 120; the run phase never happened. *)
  Alcotest.(check (float 1e-9)) "charged at the cap" 125. e.History.eval_seconds;
  Alcotest.(check (float 1e-9)) "clock matches" 125. (S.Vclock.now r.Driver.clock)

let test_retry_recovers_transient () =
  (* Attempt 0 (trial 0) flakes; the retry (a fresh trial) succeeds. *)
  let target =
    scripted (fun trial -> if trial < 1_000_000 then Error Failure.Spurious_failure else Ok 42.)
  in
  let policy =
    { Resilience.none with
      Resilience.retries = 2;
      backoff_base_s = 7.;
      backoff_factor = 2.;
      backoff_max_s = 100. }
  in
  let r =
    Driver.run ~seed:1 ~resilience:policy ~target ~algorithm:(constant_proposal_algo ())
      ~budget:(Driver.Iterations 1) ()
  in
  let e = (History.entries r.Driver.history).(0) in
  Alcotest.(check (option (float 1e-9))) "recovered value" (Some 42.) e.History.value;
  Alcotest.(check bool) "no failure recorded" true (e.History.failure = None);
  (* attempt 0: 10+1+5; backoff 7; attempt 1 skips the rebuild: 1+5. *)
  Alcotest.(check (float 1e-9)) "backoff and both attempts charged" 29. e.History.eval_seconds;
  Alcotest.(check (float 1e-9)) "one retry counted" 1.
    (Obs.Metrics.counter r.Driver.metrics "driver.retries")

let test_transient_build_failure_recharges_build () =
  (* Pinned retry semantics: a failed build leaves no image, so the failed
     attempt must not populate the cache — the retry rebuilds and the
     build is legitimately charged again.  (Contrast with
     [test_retry_recovers_transient], where the failure is post-build and
     the retry skips the rebuild.) *)
  let target =
    Target.make ~name:"flakybuild" ~space:(toy_space ()) ~metric:Metric.throughput
      (fun ~trial config ->
        ignore config;
        if trial < 1_000_000 then
          { Target.value = Error Failure.Flaky_build; build_s = 10.; boot_s = 0.; run_s = 0.; objectives = [||] }
        else { Target.value = Ok 42.; build_s = 10.; boot_s = 1.; run_s = 5.; objectives = [||] })
  in
  let policy =
    { Resilience.none with Resilience.retries = 1; backoff_base_s = 7. }
  in
  let r =
    Driver.run ~seed:1 ~resilience:policy ~target ~algorithm:(constant_proposal_algo ())
      ~budget:(Driver.Iterations 1) ()
  in
  let e = (History.entries r.Driver.history).(0) in
  Alcotest.(check (option (float 1e-9))) "recovered value" (Some 42.) e.History.value;
  (* attempt 0: build 10 (no image produced); backoff 7; attempt 1 must
     rebuild: 10+1+5. *)
  Alcotest.(check (float 1e-9)) "build charged on both attempts" 33. e.History.eval_seconds;
  Alcotest.(check (float 1e-9)) "two builds counted" 2.
    (Obs.Metrics.counter r.Driver.metrics "driver.builds_charged");
  Alcotest.(check (float 1e-9)) "no rebuild skip" 0.
    (Obs.Metrics.counter r.Driver.metrics "driver.rebuild_skips");
  (* Flaky_build is transient: it must never be negative-cached. *)
  Alcotest.(check (float 1e-9)) "no negative hit" 0.
    (Obs.Metrics.counter r.Driver.metrics "driver.image_cache.negative_hits")

let test_nan_measurement_rejected () =
  (* The explicit NaN policy: a target reporting Ok nan (or inf) is
     converted to a typed Non_finite_measurement failure instead of
     poisoning the history and downstream statistics. *)
  let check_rejected name v =
    let target = scripted (fun _ -> Ok v) in
    let r =
      Driver.run ~seed:1 ~target ~algorithm:(constant_proposal_algo ())
        ~budget:(Driver.Iterations 1) ()
    in
    let e = (History.entries r.Driver.history).(0) in
    Alcotest.(check bool) (name ^ " rejected typed") true
      (e.History.value = None
      && e.History.failure = Some Failure.Non_finite_measurement);
    Alcotest.(check (float 1e-9)) (name ^ " failure counted") 1.
      (Obs.Metrics.counter r.Driver.metrics "driver.failures.non-finite-measurement")
  in
  check_rejected "nan" Float.nan;
  check_rejected "inf" Float.infinity

let test_nan_corroborating_sample_rejected () =
  (* A NaN *corroborating* sample must not corrupt the median vote: the
     re-measurement is rejected as a failed sample and the honest first
     measurement stands. *)
  let target =
    scripted (fun trial -> if trial = 0 then Ok 100. else Ok Float.nan)
  in
  let policy = { Resilience.none with Resilience.measure_repeats = 3 } in
  let r =
    Driver.run ~seed:1 ~resilience:policy ~target ~algorithm:(constant_proposal_algo ())
      ~budget:(Driver.Iterations 1) ()
  in
  let e = (History.entries r.Driver.history).(0) in
  Alcotest.(check (option (float 1e-9))) "first sample stands" (Some 100.) e.History.value;
  Alcotest.(check bool) "NaN never reaches the history" true (e.History.failure = None);
  Alcotest.(check (float 1e-9)) "rejected corroborations counted" 2.
    (Obs.Metrics.counter r.Driver.metrics "driver.remeasure_failures")

let test_retries_exhausted_reports_failure () =
  let target = scripted (fun _ -> Error Failure.Spurious_failure) in
  let policy = { Resilience.none with Resilience.retries = 2; backoff_base_s = 1. } in
  let r =
    Driver.run ~seed:1 ~resilience:policy ~target ~algorithm:(constant_proposal_algo ())
      ~budget:(Driver.Iterations 1) ()
  in
  let e = (History.entries r.Driver.history).(0) in
  Alcotest.(check bool) "failure survives retries" true
    (e.History.failure = Some Failure.Spurious_failure);
  Alcotest.(check (float 1e-9)) "both retries spent" 2.
    (Obs.Metrics.counter r.Driver.metrics "driver.retries")

let test_outlier_rejected_by_median () =
  (* The first sample is corrupted (1000 vs 100); corroboration disagrees,
     the third sample tips the median back to the honest value. *)
  let target =
    scripted (fun trial -> if trial = 0 then Ok 1000. else Ok 100.)
  in
  let policy =
    { Resilience.none with Resilience.measure_repeats = 3; outlier_threshold = 0.25 }
  in
  let r =
    Driver.run ~seed:1 ~resilience:policy ~target ~algorithm:(constant_proposal_algo ())
      ~budget:(Driver.Iterations 1) ()
  in
  let e = (History.entries r.Driver.history).(0) in
  Alcotest.(check (option (float 1e-9))) "median wins" (Some 100.) e.History.value;
  (* first sample 10+1+5, two re-measures at boot+run each. *)
  Alcotest.(check (float 1e-9)) "re-measures never charge a build" 28. e.History.eval_seconds;
  Alcotest.(check (float 1e-9)) "rejection counted" 1.
    (Obs.Metrics.counter r.Driver.metrics "driver.outlier_rejections")

let test_agreeing_measurement_keeps_first_sample () =
  (* When the corroborating sample agrees, the *first* measurement stands —
     so enabling repeats does not perturb fault-free values. *)
  let target = scripted (fun _ -> Ok 100.) in
  let policy = { Resilience.none with Resilience.measure_repeats = 3 } in
  let r =
    Driver.run ~seed:1 ~resilience:policy ~target ~algorithm:(constant_proposal_algo ())
      ~budget:(Driver.Iterations 1) ()
  in
  let e = (History.entries r.Driver.history).(0) in
  Alcotest.(check (option (float 1e-9))) "first sample kept" (Some 100.) e.History.value;
  Alcotest.(check (float 1e-9)) "exactly one corroborating sample" 1.
    (Obs.Metrics.counter r.Driver.metrics "driver.remeasurements");
  Alcotest.(check (float 1e-9)) "no rejection" 0.
    (Obs.Metrics.counter r.Driver.metrics "driver.outlier_rejections")

let test_quarantine_after_exhausted_retries () =
  let target = scripted (fun _ -> Error Failure.Spurious_failure) in
  let policy =
    { Resilience.none with
      Resilience.retries = 1;
      backoff_base_s = 1.;
      quarantine_after = 1 }
  in
  let r =
    Driver.run ~seed:1 ~resilience:policy ~target ~algorithm:(constant_proposal_algo ())
      ~budget:(Driver.Iterations 3) ()
  in
  let es = History.entries r.Driver.history in
  Alcotest.(check bool) "first episode fails normally" true
    (es.(0).History.failure = Some Failure.Spurious_failure);
  Alcotest.(check bool) "second proposal quarantined" true
    (es.(1).History.failure = Some Failure.Quarantined);
  Alcotest.(check bool) "third proposal quarantined" true
    (es.(2).History.failure = Some Failure.Quarantined);
  Alcotest.(check (float 1e-9)) "quarantined entries charge the floor"
    Driver.default_invalid_floor_s es.(1).History.eval_seconds;
  Alcotest.(check (float 1e-9)) "one config quarantined" 1.
    (Obs.Metrics.counter r.Driver.metrics "driver.quarantines");
  Alcotest.(check (float 1e-9)) "skipped proposals counted" 2.
    (Obs.Metrics.counter r.Driver.metrics "driver.quarantined_proposals")

let test_quarantine_distinguishes_deep_configs () =
  (* Regression: quarantine keys used to be [Hashtbl.hash] of the config
     list, which ignores parameters past the ~10th — so a quarantined
     config dragged every config sharing its 10-parameter prefix into
     quarantine with it.  B differs from A only in the 12th parameter and
     must keep evaluating after A is quarantined. *)
  let space =
    Space.create
      (List.init 12 (fun i ->
           Param.int_param (Printf.sprintf "p%d" i) ~lo:0 ~hi:9 ~default:0))
  in
  let config_a = Array.make 12 (Param.Vint 1) in
  let config_b = Array.init 12 (fun i -> Param.Vint (if i = 11 then 2 else 1)) in
  Alcotest.(check bool) "the old truncated keys collide" true
    (Hashtbl.hash (Array.to_list config_a) = Hashtbl.hash (Array.to_list config_b));
  let target =
    Target.make ~name:"deep" ~space ~metric:Metric.throughput (fun ~trial config ->
        ignore trial;
        match config.(11) with
        | Param.Vint 1 ->
          { Target.value = Error Failure.Spurious_failure;
            build_s = 1.; boot_s = 1.; run_s = 1.; objectives = [||] }
        | _ -> { Target.value = Ok 50.; build_s = 1.; boot_s = 1.; run_s = 1.; objectives = [||] })
  in
  let k = ref 0 in
  let algo =
    Search_algorithm.make ~name:"alternate"
      ~propose:(fun _ ->
        incr k;
        if !k mod 2 = 1 then config_a else config_b)
      ()
  in
  let policy = { Resilience.none with Resilience.quarantine_after = 1 } in
  let r =
    Driver.run ~seed:1 ~resilience:policy ~target ~algorithm:algo ~budget:(Driver.Iterations 4) ()
  in
  let es = History.entries r.Driver.history in
  Alcotest.(check bool) "A fails and strikes out" true
    (es.(0).History.failure = Some Failure.Spurious_failure);
  Alcotest.(check (option (float 1e-9))) "B unaffected by A's quarantine" (Some 50.)
    es.(1).History.value;
  Alcotest.(check bool) "A quarantined on re-proposal" true
    (es.(2).History.failure = Some Failure.Quarantined);
  Alcotest.(check (option (float 1e-9))) "B still evaluating" (Some 50.)
    es.(3).History.value;
  Alcotest.(check (float 1e-9)) "exactly one config quarantined" 1.
    (Obs.Metrics.counter r.Driver.metrics "driver.quarantines")

(* At four workers with a checkpoint: the journal's strike and
   quarantined lines hold [Param.config_key]s, and the final state
   counts one strike per exhausted episode. *)
let test_quarantine_journal_keys_at_four_workers () =
  let space =
    Space.create
      (List.init 12 (fun i -> Param.int_param (Printf.sprintf "p%d" i) ~lo:(-9) ~hi:9 ~default:0))
  in
  (* Failing configurations differ from each other only in the last
     parameter. *)
  let bad k = Array.init 12 (fun i -> Param.Vint (if i = 11 then -k else i mod 3)) in
  let target =
    Target.make ~name:"deep" ~space ~metric:Metric.throughput (fun ~trial config ->
        ignore trial;
        match config.(11) with
        | Param.Vint x when x < 0 ->
          { Target.value = Error Failure.Spurious_failure;
            build_s = 1.; boot_s = 1.; run_s = 1.; objectives = [||] }
        | _ -> { Target.value = Ok 50.; build_s = 1.; boot_s = 1.; run_s = 1.; objectives = [||] })
  in
  let proposals = [| bad 1; Array.make 12 (Param.Vint 5); bad 2; bad 3 |] in
  let k = ref (-1) in
  let algo =
    Search_algorithm.make ~name:"cycle"
      ~propose:(fun _ ->
        incr k;
        Array.copy proposals.(!k mod Array.length proposals))
      ()
  in
  let path = Filename.temp_file "wayfinder" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let r =
        Driver.run ~seed:1 ~workers:4 ~obs:(frozen_obs ())
          ~resilience:{ Resilience.none with Resilience.quarantine_after = 2 }
          ~checkpoint_path:path ~checkpoint_every:3 ~target ~algorithm:algo
          ~budget:(Driver.Iterations 24) ()
      in
      let strikes = Hashtbl.create 4 in
      Array.iter
        (fun (e : History.entry) ->
          if e.History.failure = Some Failure.Spurious_failure then begin
            let key = Param.config_key e.History.config in
            Hashtbl.replace strikes key (1 + Option.value ~default:0 (Hashtbl.find_opt strikes key))
          end)
        (History.entries r.Driver.history);
      let expected_strikes = List.sort compare (List.of_seq (Hashtbl.to_seq strikes)) in
      let bad_keys = List.map (fun k -> Param.config_key (bad k)) [ 1; 2; 3 ] in
      let journal_keys tag =
        In_channel.with_open_text path In_channel.input_lines
        |> List.filter_map (fun l ->
               match String.split_on_char ' ' l with
               | t :: key :: _ when t = tag -> Some key
               | _ -> None)
      in
      let all_bad keys = keys <> [] && List.for_all (fun k -> List.mem k bad_keys) keys in
      Alcotest.(check bool) "strike lines hold config keys" true (all_bad (journal_keys "strike"));
      Alcotest.(check bool) "quarantined lines hold config keys" true
        (all_bad (journal_keys "quarantined"));
      match Checkpoint.load ~path with
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
      | Ok ck ->
        Alcotest.(check (list (pair string int))) "one strike per exhausted episode"
          expected_strikes ck.Checkpoint.strikes;
        Alcotest.(check (list string)) "twice-struck keys quarantined"
          (List.filter_map (fun (key, n) -> if n >= 2 then Some key else None) expected_strikes)
          ck.Checkpoint.quarantined)

let test_resilient_policy_is_noop_without_faults () =
  (* On a fault-free target the resilient policy must not change what the
     search sees: same values, same best. *)
  let series policy =
    let target = toy_target () in
    let r =
      Driver.run ~seed:11 ~resilience:policy ~target ~algorithm:(Random_search.create ())
        ~budget:(Driver.Iterations 30) ()
    in
    Wayfinder_analytics.Series.(values (of_history ~space:target.Target.space r.Driver.history))
  in
  Alcotest.(check (array (float 1e-9))) "identical series"
    (series Resilience.none)
    (series Resilience.default_resilient)

let prop_phase_sums_hold_under_faults =
  QCheck2.Test.make ~name:"phase sums equal history under faults + resilience" ~count:15
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let plan = Faults.create ~rates:(Faults.rates_of_total 0.10) ~seed () in
      let target = Target.with_faults ~plan (toy_target ()) in
      let r =
        Driver.run ~seed ~resilience:Resilience.default_resilient ~target
          ~algorithm:(Random_search.create ()) ~budget:(Driver.Iterations 25) ()
      in
      let phase_total =
        List.fold_left (fun acc (_, s) -> acc +. s) 0. (Driver.phase_virtual_seconds r)
      in
      Float.abs (phase_total -. History.total_eval_seconds r.Driver.history) < 1e-6
      && Float.abs (S.Vclock.now r.Driver.clock -. phase_total) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume                                                 *)
(* ------------------------------------------------------------------ *)

let sample_checkpoint () =
  let entry index value failure =
    { History.index;
      config = [| Param.Vint index; Param.Vbool (index mod 2 = 0) |];
      value;
      failure;
      at_seconds = 0.1 +. (0.2 *. float_of_int index);
      eval_seconds = 16.3 /. 3.;
      built = index mod 2 = 0;
      decide_seconds = 1e-4; objectives = None }
  in
  { Checkpoint.seed = 12345;
    rng_state = 0xDEADBEEFL;
    clock_seconds = 0.1 +. 0.2;
    budget_start_seconds = 0.;
    iterations = 3;
    workers = 2;
    consecutive_invalid = 1;
    cache_capacity = 2;
    cache =
      [ ("0:i7,1:b0", { Image_cache.status = Built; origin = 1 });
        ( "0:i3,1:b1",
          { Image_cache.status =
              Build_failed (Failure.Other "strange build break,\twith tab");
            origin = 0 } ) ];
    strikes = [ ("i42,b1", 1); ("i99,b0,c3", 2) ];
    quarantined = [ "i99,b0,c3" ];
    entries =
      [ entry 0 (Some 101.5) None;
        entry 1 None (Some (Failure.Other "weird failure,\twith tab"));
        entry 2 None (Some Failure.Boot_timeout) ];
    inflight =
      [ { Checkpoint.index = 3;
          slot = 1;
          start_seconds = 0.3;
          entry = entry 3 (Some 55.25) None } ];
    pareto = [ (0, [| 101.5; 0.25 |]); (2, [| 99.0; 0.125 |]) ];
    trace_cursor = Some 7 }

let test_checkpoint_string_roundtrip () =
  let ck = sample_checkpoint () in
  match Checkpoint.of_string (Checkpoint.to_string ck) with
  | Error e -> Alcotest.fail ("roundtrip failed: " ^ Checkpoint.error_to_string e)
  | Ok ck' ->
    (* Structural equality covers exact float round-trips (%h encoding)
       and the percent-encoded failure string. *)
    Alcotest.(check bool) "identical checkpoint" true (ck = ck')

let test_checkpoint_rejects_garbage () =
  let bad s =
    match Checkpoint.of_string s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "wrong magic" true (bad "not-a-checkpoint 1\nend\n");
  Alcotest.(check bool) "future version" true (bad "wayfinder-checkpoint 999\nend\n");
  (* Truncation: chop the end marker off a valid file. *)
  let s = Checkpoint.to_string (sample_checkpoint ()) in
  let truncated = String.sub s 0 (String.length s - 4) in
  Alcotest.(check bool) "truncated file rejected" true (bad truncated);
  (* A state record whose crc matches still counts only when its
     iterations equal the entry lines before it. *)
  let ck = sample_checkpoint () in
  Alcotest.(check bool) "iterations not matching the entries rejected" true
    (bad (Checkpoint.to_string { ck with Checkpoint.iterations = ck.Checkpoint.iterations + 1 }))

let test_checkpoint_save_load_atomic () =
  let path = Filename.temp_file "wayfinder" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let ck = sample_checkpoint () in
      Checkpoint.save ~path ck;
      Alcotest.(check bool) "no tmp file left" false (Sys.file_exists (path ^ ".tmp"));
      match Checkpoint.load ~path with
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
      | Ok ck' -> Alcotest.(check bool) "file roundtrip" true (ck = ck'))

(* A run under injected faults with the resilient policy, frozen wall
   clock, deterministic in [seed]. *)
let faulty_run ?checkpoint_path ?resume_from ~seed ~iterations () =
  let plan = Faults.create ~rates:(Faults.rates_of_total 0.10) ~seed () in
  let target = Target.with_faults ~plan (toy_target ()) in
  Driver.run ~seed ~obs:(frozen_obs ()) ~resilience:Resilience.default_resilient
    ?checkpoint_path ~checkpoint_every:7 ?resume_from ~target
    ~algorithm:(Random_search.create ()) ~budget:(Driver.Iterations iterations) ()

let resume_roundtrip ~seed ~interrupt_at ~iterations =
  let full = faulty_run ~seed ~iterations () in
  let path = Filename.temp_file "wayfinder" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* "Kill" the run at [interrupt_at] iterations; the driver leaves a
         final checkpoint behind. *)
      ignore (faulty_run ~checkpoint_path:path ~seed ~iterations:interrupt_at ());
      match Checkpoint.load ~path with
      | Error e -> Alcotest.failf "checkpoint load: %s" (Checkpoint.error_to_string e)
      | Ok ck ->
        let resumed = faulty_run ~resume_from:ck ~seed ~iterations () in
        (History.to_csv full.Driver.history, History.to_csv resumed.Driver.history))

let test_resume_reproduces_csv_byte_for_byte () =
  let full_csv, resumed_csv = resume_roundtrip ~seed:3 ~interrupt_at:9 ~iterations:20 in
  Alcotest.(check string) "identical CSV" full_csv resumed_csv

let prop_resume_at_any_iteration =
  QCheck2.Test.make ~name:"kill-and-resume reproduces the run at any cut point" ~count:8
    QCheck2.Gen.(pair (int_range 0 500) (int_range 1 19))
    (fun (seed, interrupt_at) ->
      let full_csv, resumed_csv = resume_roundtrip ~seed ~interrupt_at ~iterations:20 in
      full_csv = resumed_csv)

let test_resume_diverging_setup_rejected () =
  let path = Filename.temp_file "wayfinder" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (faulty_run ~checkpoint_path:path ~seed:5 ~iterations:10 ());
      match Checkpoint.load ~path with
      | Error e -> Alcotest.failf "checkpoint load: %s" (Checkpoint.error_to_string e)
      | Ok ck ->
        (* Same checkpoint, different driver seed: the replayed proposals
           cannot match the recorded ones. *)
        Alcotest.(check bool) "wrong seed rejected" true
          (try
             ignore (faulty_run ~resume_from:ck ~seed:6 ~iterations:20 ());
             false
           with Invalid_argument _ -> true);
        (* A pre-advanced clock cannot be the checkpoint's budget origin. *)
        let clock = S.Vclock.create () in
        S.Vclock.advance clock 1.;
        Alcotest.(check bool) "advanced clock rejected" true
          (try
             ignore
               (Driver.run ~seed:5 ~clock ~resume_from:ck ~target:(toy_target ())
                  ~algorithm:(Random_search.create ()) ~budget:(Driver.Iterations 20) ());
             false
           with Invalid_argument _ -> true))

(* A budget below what the checkpoint already launched is rejected up
   front, naming both counts: the engine used to spin forever on it. *)
let test_resume_budget_below_checkpoint_rejected () =
  let mentions msg needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length msg && (String.sub msg i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun workers ->
      let path = Filename.temp_file "wayfinder" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          ignore
            (Driver.run ~seed:3 ~workers ~checkpoint_path:path ~target:(toy_target ())
               ~algorithm:(Random_search.create ()) ~budget:(Driver.Iterations 24) ());
          match Checkpoint.load ~path with
          | Error e -> Alcotest.failf "checkpoint load: %s" (Checkpoint.error_to_string e)
          | Ok ck ->
            let launched = ck.Checkpoint.iterations + List.length ck.Checkpoint.inflight in
            let expect_rejected name resume =
              match resume () with
              | (_ : Driver.result) ->
                Alcotest.failf "%s at workers %d: resumed under a smaller budget" name workers
              | exception Invalid_argument msg ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s at workers %d names 10 and %d: %S" name workers launched msg)
                  true
                  (mentions msg "10" && mentions msg (string_of_int launched))
            in
            expect_rejected "run" (fun () ->
                Driver.run ~seed:3 ~workers ~resume_from:ck ~target:(toy_target ())
                  ~algorithm:(Random_search.create ()) ~budget:(Driver.Iterations 10) ())))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Scenario kill-and-resume: archive + trace cursor round-trip         *)
(* ------------------------------------------------------------------ *)

module C = Conformance

let archives_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ia, va) (ib, vb) -> ia = ib && Objective.equal_vec va vb)
       a b

(* A multi-objective trace-replay run on workers=4 under 10% transient
   faults, killed mid-run via [on_iteration]; the resumed run gets a
   freshly constructed (equivalent) scenario, as a real restart would. *)
let scenario_resume_roundtrip ~seed ~interrupt_at =
  let budget = Driver.Iterations 24 in
  let workers = 4 in
  let fault_rate = 0.10 in
  let full, full_cursor = C.run_scenario ~workers ~seed ~budget ~fault_rate "random" in
  let path = Filename.temp_file "wayfinder" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let completions = ref 0 in
      (try
         ignore
           (C.run_scenario ~workers ~seed ~budget ~fault_rate ~checkpoint_path:path
              ~checkpoint_every:5
              ~on_iteration:(fun _ ->
                incr completions;
                if !completions = interrupt_at then raise Exit)
              "random")
       with Exit -> ());
      match Checkpoint.load ~path with
      | Error e -> Alcotest.failf "checkpoint load: %s" (Checkpoint.error_to_string e)
      | Ok ck ->
        (* The exit drains the background publisher: the primary holds
           the newest snapshot taken before the kill. *)
        Alcotest.(check int) "primary is the newest snapshot"
          (5 * ((interrupt_at - 1) / 5))
          ck.Checkpoint.iterations;
        let resumed, resumed_cursor =
          C.run_scenario ~workers ~seed ~budget ~fault_rate ~resume_from:ck "random"
        in
        (full, full_cursor, ck, resumed, resumed_cursor))

let test_scenario_kill_and_resume () =
  let full, full_cursor, ck, resumed, resumed_cursor =
    scenario_resume_roundtrip ~seed:11 ~interrupt_at:12
  in
  Alcotest.(check bool) "checkpoint carries a trace cursor" true
    (ck.Checkpoint.trace_cursor <> None);
  Alcotest.(check bool) "checkpoint carries the archive" true
    (ck.Checkpoint.pareto <> []);
  (* The persisted archive and cursor round-trip bitwise through the
     format-5 text encoding. *)
  (match Checkpoint.of_string (Checkpoint.to_string ck) with
  | Error e -> Alcotest.failf "re-parse: %s" (Checkpoint.error_to_string e)
  | Ok ck' ->
    Alcotest.(check bool) "archive round-trips exactly" true
      (archives_equal ck.Checkpoint.pareto ck'.Checkpoint.pareto);
    Alcotest.(check bool) "cursor round-trips exactly" true
      (ck.Checkpoint.trace_cursor = ck'.Checkpoint.trace_cursor));
  Alcotest.(check string) "resume reproduces the full CSV"
    (History.to_csv full.C.result.Driver.history)
    (History.to_csv resumed.C.result.Driver.history);
  Alcotest.(check bool) "resume reproduces the archive" true
    (archives_equal (C.archive_list full.C.result) (C.archive_list resumed.C.result));
  Alcotest.(check int) "resume reproduces the final cursor" full_cursor resumed_cursor

let prop_scenario_kill_and_resume =
  QCheck2.Test.make
    ~name:"scenario kill-and-resume reproduces archive and cursor under faults"
    ~count:6
    QCheck2.Gen.(pair (int_range 0 300) (int_range 6 20))
    (fun (seed, interrupt_at) ->
      let full, full_cursor, _, resumed, resumed_cursor =
        scenario_resume_roundtrip ~seed ~interrupt_at
      in
      History.to_csv full.C.result.Driver.history
      = History.to_csv resumed.C.result.Driver.history
      && archives_equal (C.archive_list full.C.result) (C.archive_list resumed.C.result)
      && full_cursor = resumed_cursor)

(* A scenario checkpoint cannot be resumed into a scenario-less run. *)
let test_scenario_checkpoint_mismatch_rejected () =
  let path = Filename.temp_file "wayfinder" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore
        (C.run_scenario ~workers:4 ~seed:5 ~budget:(Driver.Iterations 12)
           ~checkpoint_path:path ~checkpoint_every:5 "random");
      match Checkpoint.load ~path with
      | Error e -> Alcotest.failf "checkpoint load: %s" (Checkpoint.error_to_string e)
      | Ok ck ->
        Alcotest.(check bool) "scenario checkpoint rejected without scenario" true
          (try
             ignore
               (C.run ~workers:4 ~seed:5 ~budget:(Driver.Iterations 12)
                  ~resume_from:ck "random");
             false
           with Invalid_argument _ -> true))

(* ------------------------------------------------------------------ *)
(* Kill-and-resume with a ledger attached                              *)
(* ------------------------------------------------------------------ *)

module A = Wayfinder_analytics

(* A ledger's lines without the wall-clock decide_s values and the seal's
   crc, which covers them. *)
let strip_wall text =
  List.map
    (fun line ->
      match A.Json.parse line with
      | Ok (A.Json.Obj fields) ->
        A.Json.to_string
          (A.Json.Obj (List.filter (fun (k, _) -> k <> "decide_s" && k <> "crc") fields))
      | Ok _ | Error _ -> line)
    (String.split_on_char '\n' text)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [run] once uninterrupted into one ledger, and once killed through
   [on_iteration] after [interrupt_at] completions into another.  A torn
   line is appended to the killed ledger, as a kill mid-write leaves one;
   the run then resumes from its last checkpoint into the reopened ledger,
   which must come out as the uninterrupted one. *)
let ledger_kill_and_resume ~seed ~algo ~space ~metric ?objectives ~interrupt_at
    (run :
      ?checkpoint_path:string ->
      ?resume_from:Checkpoint.t ->
      ?on_iteration:(History.entry -> unit) ->
      on_record:(History.entry -> Search_algorithm.belief option -> unit) ->
      unit ->
      unit) =
  let full = Filename.temp_file "wayfinder" ".ledger" in
  let killed = Filename.temp_file "wayfinder" ".ledger" in
  let ckpt = Filename.temp_file "wayfinder" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ full; killed; ckpt ])
    (fun () ->
      let create path = A.Ledger.create_writer ~seed ?objectives ~algo ~space ~metric path in
      let w = create full in
      run ~on_record:(A.Ledger.record w) ();
      A.Ledger.close_writer w;
      let w = create killed in
      let completions = ref 0 in
      (try
         run ~checkpoint_path:ckpt
           ~on_iteration:(fun _ ->
             incr completions;
             if !completions = interrupt_at then raise Exit)
           ~on_record:(A.Ledger.record w) ()
       with Exit -> ());
      Out_channel.with_open_gen [ Open_wronly; Open_append ] 0o644 killed (fun oc ->
          output_string oc {|{"type":"iter","i":|});
      let ck =
        match Checkpoint.load ~path:ckpt with
        | Ok ck -> ck
        | Error e -> Alcotest.failf "checkpoint load: %s" (Checkpoint.error_to_string e)
      in
      (match
         A.Ledger.reopen_writer ~seed ?objectives ~algo ~space ~metric
           ~entries:ck.Checkpoint.entries killed
       with
      | Error e -> Alcotest.failf "reopen: %s" (A.Ledger.error_to_string e)
      | Ok w ->
        run ~resume_from:ck ~on_record:(A.Ledger.record w) ();
        A.Ledger.close_writer w);
      Alcotest.(check (list string))
        "resumed ledger equals the uninterrupted one"
        (strip_wall (read_file full))
        (strip_wall (read_file killed));
      ck)

let test_ledger_kill_and_resume_deeptune () =
  List.iter
    (fun workers ->
      let run ?checkpoint_path ?resume_from ?on_iteration ~on_record () =
        ignore
          (C.run ~workers ~seed:4 ~budget:(Driver.Iterations 24)
             ~fault_rate:0.10 ?checkpoint_path ~checkpoint_every:5 ?resume_from ?on_iteration
             ~on_record "deeptune")
      in
      let ck =
        ledger_kill_and_resume ~seed:4 ~algo:"deeptune" ~space:(C.space ())
          ~metric:Metric.throughput ~interrupt_at:13 run
      in
      (* At four workers the interesting case: tasks were in flight. *)
      if workers = 4 then
        Alcotest.(check bool) "checkpoint carries in-flight tasks" true
          (ck.Checkpoint.inflight <> []))
    [ 1; 4 ]

let test_ledger_kill_and_resume_flash_crowd () =
  let run ?checkpoint_path ?resume_from ?on_iteration ~on_record () =
    ignore
      (C.run_scenario ~workers:4 ~seed:6 ~budget:(Driver.Iterations 24)
         ~fault_rate:0.10 ?checkpoint_path ~checkpoint_every:5 ?resume_from ?on_iteration
         ~on_record "deeptune-multi")
  in
  ignore
    (ledger_kill_and_resume ~seed:6 ~algo:"deeptune-multi" ~space:(C.space ())
       ~metric:(Metric.make ~name:"score" ~unit_name:"score" ())
       ~objectives:(Array.to_list C.scenario_spec) ~interrupt_at:12 run)

(* [Driver.validate] refuses every argument set [Driver.run] refuses,
   with the very message [run] raises. *)
let test_validate_refuses_like_run () =
  let checkpoint run =
    let path = Filename.temp_file "wayfinder" ".ckpt" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        run path;
        match Checkpoint.load ~path with
        | Ok ck -> ck
        | Error e -> Alcotest.failf "checkpoint load: %s" (Checkpoint.error_to_string e))
  in
  let plain =
    checkpoint (fun path ->
        ignore
          (C.run ~workers:4 ~seed:5 ~budget:(Driver.Iterations 12)
             ~checkpoint_path:path "random"))
  in
  let with_scenario =
    checkpoint (fun path ->
        ignore
          (C.run_scenario ~workers:4 ~seed:5 ~budget:(Driver.Iterations 12)
             ~checkpoint_path:path "random"))
  in
  let refused name ?clock ?invalid_floor_s ?max_consecutive_invalid ?resilience
      ?checkpoint_every ?checkpoint_keep ?resume_from ?workers ?batch ?image_cache ?scenario
      ?(budget = Driver.Iterations 12) () =
    let message f = match f () with () -> None | exception Invalid_argument m -> Some m in
    let checked =
      message (fun () ->
          Driver.validate ?clock ?invalid_floor_s ?max_consecutive_invalid ?resilience
            ?checkpoint_every ?checkpoint_keep ?resume_from ?workers ?batch ?image_cache
            ?scenario ~budget ())
    in
    let ran =
      message (fun () ->
          ignore
            (Driver.run ?clock ?invalid_floor_s ?max_consecutive_invalid ?resilience
               ?checkpoint_every ?checkpoint_keep ?resume_from ?workers ?batch ?image_cache
               ?scenario ~target:(C.target ()) ~algorithm:(Random_search.create ()) ~budget ()))
    in
    match (checked, ran) with
    | Some m, Some m' -> Alcotest.(check string) name m' m
    | None, _ -> Alcotest.failf "%s: validate accepted it" name
    | Some _, None -> Alcotest.failf "%s: run accepted it" name
  in
  refused "invalid floor" ~invalid_floor_s:0. ();
  refused "invalid cap" ~max_consecutive_invalid:0 ();
  refused "checkpoint cadence" ~checkpoint_every:0 ();
  refused "checkpoint generations" ~checkpoint_keep:0 ();
  refused "workers" ~workers:0 ();
  refused "batch" ~batch:0 ();
  refused "retries" ~resilience:{ Resilience.none with Resilience.retries = -1 } ();
  refused "measure repeats" ~resilience:{ Resilience.none with Resilience.measure_repeats = 0 } ();
  refused "build timeout"
    ~resilience:{ Resilience.none with Resilience.build_timeout_s = Some 0. } ();
  let advanced = S.Vclock.create () in
  S.Vclock.advance advanced 1.;
  refused "resume budget" ~resume_from:plain ~workers:4 ~budget:(Driver.Iterations 10) ();
  refused "resume clock" ~clock:advanced ~resume_from:plain ~workers:4 ();
  refused "resume workers" ~resume_from:plain ~workers:2 ();
  refused "resume cache" ~resume_from:plain ~workers:4 ~image_cache:(Image_cache.capacity 8) ();
  refused "scenario added" ~resume_from:plain ~workers:4 ~scenario:(C.make_scenario ()) ();
  refused "scenario dropped" ~resume_from:with_scenario ~workers:4 ();
  (* And what it accepts, [run] accepts. *)
  Driver.validate ~resume_from:plain ~workers:4 ~budget:(Driver.Iterations 12) ();
  Driver.validate ~resume_from:with_scenario ~workers:4 ~scenario:(C.make_scenario ())
    ~budget:(Driver.Iterations 12) ()

(* ------------------------------------------------------------------ *)
(* Acceptance: DeepTune on SimLinux/Nginx under a 10 % fault rate      *)
(* ------------------------------------------------------------------ *)

let test_acceptance_deeptune_under_faults () =
  let seed = 0 in
  let iterations = 60 in
  let run target resilience =
    let dt = D.Deeptune.create ~seed target.Target.space in
    Driver.run ~seed ~resilience ~target ~algorithm:(D.Deeptune.algorithm dt)
      ~budget:(Driver.Iterations iterations) ()
  in
  let base = Targets.of_sim_linux (S.Sim_linux.create ()) ~app:S.App.Nginx in
  let clean = run base Resilience.none in
  let plan = Faults.create ~rates:(Faults.rates_of_total 0.10) ~seed () in
  let faulty = run (Target.with_faults ~plan base) Resilience.default_resilient in
  (* No livelock: the full iteration budget completes. *)
  Alcotest.(check int) "fault-free run completes" iterations clean.Driver.iterations;
  Alcotest.(check int) "faulty run completes" iterations faulty.Driver.iterations;
  match (History.best_value clean.Driver.history, History.best_value faulty.Driver.history) with
  | Some cb, Some fb ->
    let gap = Float.abs (fb -. cb) /. cb in
    Alcotest.(check bool)
      (Printf.sprintf "best under faults within 5%% (clean %.1f, faulty %.1f, gap %.3f)" cb fb
         gap)
      true (gap <= 0.05)
  | _ -> Alcotest.fail "expected both runs to find a best configuration"

let () =
  Alcotest.run "resilience"
    [ ( "faults",
        [ Alcotest.test_case "zero and full rates" `Quick test_fault_rates_zero_and_full;
          Alcotest.test_case "empirical frequency" `Quick test_fault_rate_frequency;
          Alcotest.test_case "rate validation" `Quick test_fault_rates_validated;
          Alcotest.test_case "deterministic failures pass through" `Quick
            test_with_faults_passthrough_on_deterministic_failure;
          QCheck_alcotest.to_alcotest prop_fault_schedule_deterministic ] );
      ( "failure",
        [ Alcotest.test_case "string roundtrip" `Quick test_failure_string_roundtrip;
          Alcotest.test_case "classes" `Quick test_failure_classes ] );
      ( "policy",
        [ Alcotest.test_case "backoff growth and cap" `Quick test_backoff_growth_and_cap;
          Alcotest.test_case "validation" `Quick test_policy_validation;
          Alcotest.test_case "disagreement" `Quick test_disagreement ] );
      ( "driver",
        [ Alcotest.test_case "boot timeout caps a hang" `Quick test_boot_timeout_caps_hang;
          Alcotest.test_case "retry recovers a transient" `Quick test_retry_recovers_transient;
          Alcotest.test_case "transient build failure recharges the build" `Quick
            test_transient_build_failure_recharges_build;
          Alcotest.test_case "non-finite measurement rejected typed" `Quick
            test_nan_measurement_rejected;
          Alcotest.test_case "NaN corroborating sample rejected" `Quick
            test_nan_corroborating_sample_rejected;
          Alcotest.test_case "exhausted retries report failure" `Quick
            test_retries_exhausted_reports_failure;
          Alcotest.test_case "outlier rejected by median" `Quick test_outlier_rejected_by_median;
          Alcotest.test_case "agreeing measurement keeps first sample" `Quick
            test_agreeing_measurement_keeps_first_sample;
          Alcotest.test_case "quarantine distinguishes deep configs" `Quick
            test_quarantine_distinguishes_deep_configs;
          Alcotest.test_case "quarantine after exhausted retries" `Quick
            test_quarantine_after_exhausted_retries;
          Alcotest.test_case "quarantine journal keys at four workers" `Quick
            test_quarantine_journal_keys_at_four_workers;
          Alcotest.test_case "resilient policy noop without faults" `Quick
            test_resilient_policy_is_noop_without_faults;
          QCheck_alcotest.to_alcotest prop_phase_sums_hold_under_faults ] );
      ( "checkpoint",
        [ Alcotest.test_case "string roundtrip" `Quick test_checkpoint_string_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_checkpoint_rejects_garbage;
          Alcotest.test_case "save/load atomic" `Quick test_checkpoint_save_load_atomic;
          Alcotest.test_case "resume reproduces CSV byte-for-byte" `Quick
            test_resume_reproduces_csv_byte_for_byte;
          Alcotest.test_case "diverging setup rejected" `Quick
            test_resume_diverging_setup_rejected;
          Alcotest.test_case "budget below the checkpoint rejected" `Quick
            test_resume_budget_below_checkpoint_rejected;
          QCheck_alcotest.to_alcotest prop_resume_at_any_iteration ] );
      ( "scenario resume",
        [ Alcotest.test_case "kill-and-resume round-trips archive and cursor" `Quick
            test_scenario_kill_and_resume;
          Alcotest.test_case "scenario checkpoint rejected without scenario" `Quick
            test_scenario_checkpoint_mismatch_rejected;
          QCheck_alcotest.to_alcotest prop_scenario_kill_and_resume ] );
      ( "ledger resume",
        [ Alcotest.test_case "deeptune kill-and-resume keeps the ledger (workers 1, 4)" `Quick
            test_ledger_kill_and_resume_deeptune;
          Alcotest.test_case "flash-crowd kill-and-resume keeps the ledger" `Quick
            test_ledger_kill_and_resume_flash_crowd;
          Alcotest.test_case "validate refuses what run refuses" `Quick
            test_validate_refuses_like_run ] );
      ( "acceptance",
        [ Alcotest.test_case "deeptune survives 10% faults" `Slow
            test_acceptance_deeptune_under_faults ] ) ]
