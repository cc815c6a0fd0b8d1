open Wayfinder_platform
module S = Wayfinder_simos
module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Rng = Wayfinder_tensor.Rng
module Series = Wayfinder_analytics.Series

(* A tiny synthetic target: maximise -(x-7)² over one int parameter, crash
   when x > 9. *)
let toy_target () =
  let space =
    Space.create [ Wayfinder_configspace.Param.int_param "x" ~lo:0 ~hi:12 ~default:3 ]
  in
  Target.make ~name:"toy" ~space ~metric:Metric.throughput (fun ~trial config ->
      ignore trial;
      match config.(0) with
      | Param.Vint x when x > 9 ->
        { Target.value = Error Failure.Runtime_crash; build_s = 10.; boot_s = 1.; run_s = 2.; objectives = [||] }
      | Param.Vint x ->
        let v = 100. -. float_of_int ((x - 7) * (x - 7)) in
        { Target.value = Ok v; build_s = 10.; boot_s = 1.; run_s = 5.; objectives = [||] }
      | Param.Vbool _ | Param.Vtristate _ | Param.Vcat _ ->
        { Target.value = Error (Failure.Other "invalid"); build_s = 0.; boot_s = 0.; run_s = 0.; objectives = [||] })

(* ------------------------------------------------------------------ *)
(* Metric                                                              *)
(* ------------------------------------------------------------------ *)

let test_metric_score_direction () =
  Alcotest.(check (float 1e-12)) "maximize keeps sign" 5. (Metric.score Metric.throughput 5.);
  Alcotest.(check (float 1e-12)) "minimize negates" (-5.) (Metric.score Metric.memory_mb 5.);
  Alcotest.(check bool) "better throughput" true (Metric.better Metric.throughput 10. 5.);
  Alcotest.(check bool) "better memory is lower" true (Metric.better Metric.memory_mb 5. 10.)

let test_metric_of_app () =
  let m = Metric.of_app S.App.Sqlite in
  Alcotest.(check bool) "sqlite minimizes" false m.Metric.maximize;
  Alcotest.(check string) "unit" "us/op" m.Metric.unit_name

(* ------------------------------------------------------------------ *)
(* History                                                             *)
(* ------------------------------------------------------------------ *)

let entry ?(value = None) ?(failure = None) ?(at = 0.) index =
  { History.index; config = [||]; value; failure; at_seconds = at; eval_seconds = 60.;
    built = false; decide_seconds = 0.001; objectives = None }

(* The plotting series of a history, as the figure benches build them. *)
let plot h = Series.of_history ~space:(Space.create []) h

let test_history_best_and_crashes () =
  let h = History.create Metric.throughput in
  History.add h (entry ~value:(Some 10.) 0);
  History.add h (entry ~failure:(Some Failure.Runtime_crash) 1);
  History.add h (entry ~value:(Some 30.) ~at:120. 2);
  History.add h (entry ~value:(Some 20.) 3);
  Alcotest.(check int) "size" 4 (History.size h);
  Alcotest.(check int) "crashes" 1 (History.crashes h);
  Alcotest.(check (float 1e-9)) "crash rate" 0.25 (History.crash_rate h);
  Alcotest.(check (option (float 1e-9))) "best" (Some 30.) (History.best_value h);
  Alcotest.(check (option (float 1e-9))) "time to best" (Some 120.) (History.time_to_best h)

let test_history_best_under_minimised_metric () =
  let h = History.create Metric.memory_mb in
  History.add h (entry ~value:(Some 210.) 0);
  History.add h (entry ~value:(Some 195.) 1);
  History.add h (entry ~value:(Some 205.) 2);
  Alcotest.(check (option (float 1e-9))) "lowest wins" (Some 195.) (History.best_value h)

let test_history_series () =
  let h = History.create Metric.throughput in
  History.add h (entry ~failure:(Some (Failure.Other "x")) 0);
  History.add h (entry ~value:(Some 10.) 1);
  History.add h (entry ~failure:(Some (Failure.Other "x")) 2);
  History.add h (entry ~value:(Some 30.) 3);
  Alcotest.(check (array (float 1e-9))) "values backfill failures" [| 10.; 10.; 10.; 30. |]
    (Series.values (plot h));
  Alcotest.(check (array (float 1e-9))) "best so far" [| nan; 10.; 10.; 30. |]
    (Series.best_so_far (plot h));
  Alcotest.(check (array (float 1e-9))) "crash indicator" [| 1.; 0.; 1.; 0. |]
    (Series.crash_indicator (plot h))

let test_history_windowed_crash_rate () =
  let h = History.create Metric.throughput in
  for i = 0 to 9 do
    History.add h (entry ~failure:(Some (Failure.Other "x")) i)
  done;
  for i = 10 to 19 do
    History.add h (entry ~value:(Some 1.) i)
  done;
  Alcotest.(check (float 1e-9)) "recent window clean" 0. (History.windowed_crash_rate h ~window:10);
  Alcotest.(check (float 1e-9)) "full rate" 0.5 (History.crash_rate h)

let test_history_csv () =
  let h = History.create Metric.throughput in
  History.add h (entry ~value:(Some 10.) 0);
  History.add h (entry ~failure:(Some Failure.Boot_failure) 1);
  let csv = History.to_csv h in
  Alcotest.(check bool) "has header" true
    (String.length csv > 10 && String.sub csv 0 5 = "index");
  (match String.split_on_char '\n' csv with
  | header :: ok_row :: fail_row :: _ ->
    Alcotest.(check string) "header columns"
      "index,value,failure,failure_class,at_s,eval_s,built,decide_s" header;
    let field n line = List.nth (String.split_on_char ',' line) n in
    Alcotest.(check string) "success has empty class" "" (field 3 ok_row);
    Alcotest.(check string) "boot failure is deterministic" "deterministic"
      (field 3 fail_row)
  | _ -> Alcotest.fail "csv too short")

(* Minimal RFC 4180 field reader: undoes [History.csv_field]. *)
let csv_unquote s =
  if String.length s < 2 || s.[0] <> '"' then s
  else begin
    let body = String.sub s 1 (String.length s - 2) in
    let buf = Buffer.create (String.length body) in
    let i = ref 0 in
    while !i < String.length body do
      if body.[!i] = '"' then incr i;
      Buffer.add_char buf body.[!i];
      incr i
    done;
    Buffer.contents buf
  end

let test_history_csv_quoting_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string)
        (Printf.sprintf "roundtrip %S" s)
        s
        (csv_unquote (History.csv_field s)))
    [ "plain"; "has,comma"; "has \"quotes\""; "newline\nhere"; "cr\rhere";
      "a,\"b\",c"; "" ];
  (* Plain fields pass through untouched. *)
  Alcotest.(check string) "no gratuitous quoting" "boot-crash"
    (History.csv_field "boot-crash");
  (* A failure message with commas must not add CSV columns. *)
  let h = History.create Metric.throughput in
  History.add h (entry ~failure:(Some (Failure.Other "panic: bad config, rc=1, \"oops\"")) 0);
  let csv = History.to_csv h in
  (match String.split_on_char '\n' csv with
  | header :: row :: _ ->
    let columns line =
      (* Count separators outside quoted sections. *)
      let in_quotes = ref false and cols = ref 1 in
      String.iter
        (fun c ->
          if c = '"' then in_quotes := not !in_quotes
          else if c = ',' && not !in_quotes then incr cols)
        line;
      !cols
    in
    Alcotest.(check int) "row column count matches header" (columns header) (columns row)
  | _ -> Alcotest.fail "csv too short")

let test_history_empty_and_all_failure_series () =
  let empty = History.create Metric.throughput in
  Alcotest.(check int) "empty values series" 0 (Array.length (Series.values (plot empty)));
  Alcotest.(check int) "empty best series" 0
    (Array.length (Series.best_so_far (plot empty)));
  Alcotest.(check int) "empty crash indicator" 0
    (Array.length (Series.crash_indicator (plot empty)));
  Alcotest.(check (float 1e-9)) "empty windowed rate" 0.
    (History.windowed_crash_rate empty ~window:5);
  let all_fail = History.create Metric.throughput in
  for i = 0 to 3 do
    History.add all_fail (entry ~failure:(Some Failure.Boot_failure) i)
  done;
  Alcotest.(check (option (float 1e-9))) "no best" None (History.best_value all_fail);
  Alcotest.(check (array (float 1e-9))) "values fall back to 0"
    [| 0.; 0.; 0.; 0. |]
    (Series.values (plot all_fail));
  Alcotest.(check bool) "best-so-far stays nan" true
    (Array.for_all Float.is_nan (Series.best_so_far (plot all_fail)));
  Alcotest.(check (array (float 1e-9))) "every row crashed" [| 1.; 1.; 1.; 1. |]
    (Series.crash_indicator (plot all_fail));
  Alcotest.(check (float 1e-9)) "all-failure rate" 1. (History.crash_rate all_fail)

let test_history_window_edge_cases () =
  let h = History.create Metric.throughput in
  History.add h (entry ~failure:(Some (Failure.Other "x")) 0);
  History.add h (entry ~value:(Some 1.) 1);
  Alcotest.(check (float 1e-9)) "window larger than history uses all" 0.5
    (History.windowed_crash_rate h ~window:100);
  Alcotest.(check (float 1e-9)) "window 0 is 0" 0.
    (History.windowed_crash_rate h ~window:0)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let test_driver_iteration_budget () =
  let target = toy_target () in
  let algo = Random_search.create () in
  let r = Driver.run ~seed:1 ~target ~algorithm:algo ~budget:(Driver.Iterations 40) () in
  Alcotest.(check int) "exactly 40" 40 r.Driver.iterations;
  Alcotest.(check int) "history matches" 40 (History.size r.Driver.history)

let test_driver_virtual_time_budget () =
  let target = toy_target () in
  let algo = Random_search.create () in
  let r = Driver.run ~seed:2 ~target ~algorithm:algo ~budget:(Driver.Virtual_seconds 100.) () in
  (* Each iteration costs at least boot+run = 3 s (builds add more), so the
     loop must stop after a bounded number of iterations. *)
  Alcotest.(check bool) "clock past budget" true (S.Vclock.now r.Driver.clock >= 100.);
  Alcotest.(check bool) "bounded iterations" true (r.Driver.iterations <= 40)

let test_driver_finds_optimum_on_toy () =
  let target = toy_target () in
  let algo = Random_search.create () in
  let r = Driver.run ~seed:3 ~target ~algorithm:algo ~budget:(Driver.Iterations 200) () in
  Alcotest.(check (option (float 1e-9))) "optimum found" (Some 100.)
    (History.best_value r.Driver.history);
  Alcotest.(check (option (float 1e-9))) "relative" (Some 1.25)
    (Driver.best_relative_to r ~default:80.)

let test_driver_rebuild_skip () =
  (* On the SimLinux target with runtime-only variation, only the first
     iteration should charge a build. *)
  let sim = S.Sim_linux.create () in
  let target = Targets.of_sim_linux sim ~app:S.App.Nginx in
  let algo = Random_search.create ~favor:Param.Runtime ~weak:0. () in
  let r = Driver.run ~seed:4 ~target ~algorithm:algo ~budget:(Driver.Iterations 30) () in
  Alcotest.(check int) "single build" 1 (History.builds_charged r.Driver.history);
  (* With compile-time variation, most iterations rebuild. *)
  let algo_all = Random_search.create () in
  let r2 = Driver.run ~seed:4 ~target ~algorithm:algo_all ~budget:(Driver.Iterations 30) () in
  Alcotest.(check bool) "rebuilds dominate" true (History.builds_charged r2.Driver.history > 20)

let test_driver_deterministic () =
  let target = toy_target () in
  let run () =
    let r =
      Driver.run ~seed:7 ~target ~algorithm:(Random_search.create ())
        ~budget:(Driver.Iterations 25) ()
    in
    Series.values (plot r.Driver.history)
  in
  Alcotest.(check (array (float 1e-9))) "same seed same series" (run ()) (run ())

let test_driver_invalid_proposal_recorded () =
  let space = Space.create [ Wayfinder_configspace.Param.bool_param "b" false ] in
  let target =
    Target.make ~name:"t" ~space ~metric:Metric.throughput (fun ~trial:_ _ ->
        { Target.value = Ok 1.; build_s = 1.; boot_s = 1.; run_s = 1.; objectives = [||] })
  in
  let bad =
    Search_algorithm.make ~name:"bad" ~propose:(fun _ -> [| Param.Vint 42 |]) ()
  in
  let r = Driver.run ~target ~algorithm:bad ~budget:(Driver.Iterations 3) () in
  Alcotest.(check int) "all recorded as failures" 3 (History.crashes r.Driver.history);
  let e = (History.entries r.Driver.history).(0) in
  Alcotest.(check (option string)) "failure kind" (Some "invalid-configuration")
    (Option.map Failure.to_string e.History.failure);
  Alcotest.(check bool) "typed as Invalid_configuration" true
    (e.History.failure = Some Failure.Invalid_configuration)

(* An algorithm that never proposes a valid configuration for a bool-only
   space. *)
let always_invalid_target_and_algo () =
  let space = Space.create [ Wayfinder_configspace.Param.bool_param "b" false ] in
  let target =
    Target.make ~name:"t" ~space ~metric:Metric.throughput (fun ~trial:_ _ ->
        { Target.value = Ok 1.; build_s = 1.; boot_s = 1.; run_s = 1.; objectives = [||] })
  in
  let bad =
    Search_algorithm.make ~name:"bad" ~propose:(fun _ -> [| Param.Vint 42 |]) ()
  in
  (target, bad)

(* Regression: invalid proposals used to charge zero virtual seconds, so an
   algorithm stuck on invalid configurations livelocked a
   [Virtual_seconds] budget.  Each invalid entry now charges the floor
   cost, so the clock advances and the loop terminates. *)
let test_driver_invalid_terminates_virtual_budget () =
  let target, bad = always_invalid_target_and_algo () in
  let r =
    Driver.run ~seed:1 ~target ~algorithm:bad ~budget:(Driver.Virtual_seconds 50.) ()
  in
  Alcotest.(check bool) "clock reached budget" true (S.Vclock.now r.Driver.clock >= 50.);
  Alcotest.(check int) "one iteration per floor charge" 50 r.Driver.iterations;
  Alcotest.(check bool) "stopped on budget" true
    (r.Driver.stop_reason = Driver.Budget_exhausted);
  Array.iter
    (fun e ->
      Alcotest.(check (float 1e-9)) "invalid entry charges the floor" 1.
        e.History.eval_seconds)
    (History.entries r.Driver.history)

let test_driver_invalid_floor_configurable () =
  let target, bad = always_invalid_target_and_algo () in
  let r =
    Driver.run ~seed:1 ~invalid_floor_s:5. ~target ~algorithm:bad
      ~budget:(Driver.Virtual_seconds 50.) ()
  in
  Alcotest.(check int) "fewer iterations under a higher floor" 10 r.Driver.iterations;
  Alcotest.(check bool) "non-positive floor rejected" true
    (try
       ignore
         (Driver.run ~invalid_floor_s:0. ~target ~algorithm:bad
            ~budget:(Driver.Iterations 1) ());
       false
     with Invalid_argument _ -> true)

let test_driver_invalid_cap () =
  let target, bad = always_invalid_target_and_algo () in
  let r =
    Driver.run ~seed:1 ~max_consecutive_invalid:25 ~target ~algorithm:bad
      ~budget:(Driver.Virtual_seconds 1e9) ()
  in
  Alcotest.(check int) "stopped at the cap" 25 r.Driver.iterations;
  Alcotest.(check bool) "reports the cap as stop reason" true
    (r.Driver.stop_reason = Driver.Invalid_cap);
  Alcotest.(check (float 1e-9)) "invalid proposals counted" 25.
    (Wayfinder_obs.Metrics.counter r.Driver.metrics "driver.invalid_proposals")

let test_driver_valid_proposal_resets_cap () =
  (* Alternating invalid/valid proposals never accumulate enough
     consecutive failures to trip a cap of 2. *)
  let space = Space.create [ Wayfinder_configspace.Param.bool_param "b" false ] in
  let target =
    Target.make ~name:"t" ~space ~metric:Metric.throughput (fun ~trial:_ _ ->
        { Target.value = Ok 1.; build_s = 1.; boot_s = 1.; run_s = 1.; objectives = [||] })
  in
  let n = ref 0 in
  let alternating =
    Search_algorithm.make ~name:"alt"
      ~propose:(fun _ ->
        incr n;
        if !n mod 2 = 1 then [| Param.Vint 42 |] else [| Param.Vbool true |])
      ()
  in
  let r =
    Driver.run ~seed:1 ~max_consecutive_invalid:2 ~target ~algorithm:alternating
      ~budget:(Driver.Iterations 20) ()
  in
  Alcotest.(check int) "ran the full budget" 20 r.Driver.iterations;
  Alcotest.(check bool) "budget, not cap" true
    (r.Driver.stop_reason = Driver.Budget_exhausted)

(* Acceptance: the per-phase virtual timings exposed on [Driver.result]
   account for every virtual second the history charged. *)
let test_driver_metrics_phases_sum_to_history () =
  let check_sums r =
    let phase_total =
      List.fold_left (fun acc (_, s) -> acc +. s) 0. (Driver.phase_virtual_seconds r)
    in
    Alcotest.(check (float 1e-6)) "phases account for all virtual time"
      (History.total_eval_seconds r.Driver.history)
      phase_total
  in
  let target = toy_target () in
  check_sums
    (Driver.run ~seed:5 ~target ~algorithm:(Random_search.create ())
       ~budget:(Driver.Iterations 40) ());
  (* Also with invalid entries in the mix. *)
  let target_bad, bad = always_invalid_target_and_algo () in
  check_sums
    (Driver.run ~seed:5 ~target:target_bad ~algorithm:bad
       ~budget:(Driver.Virtual_seconds 20.) ())

(* Regression: best_relative_to with a zero (or non-finite) reference used
   to report an infinite ratio instead of declining to answer. *)
let test_driver_best_relative_to_zero_default () =
  let target = toy_target () in
  let r =
    Driver.run ~seed:3 ~target ~algorithm:(Random_search.create ())
      ~budget:(Driver.Iterations 10) ()
  in
  Alcotest.(check (option (float 1e-9))) "zero reference" None
    (Driver.best_relative_to r ~default:0.);
  Alcotest.(check (option (float 1e-9))) "nan reference" None
    (Driver.best_relative_to r ~default:nan);
  Alcotest.(check bool) "finite reference still works" true
    (Driver.best_relative_to r ~default:80. <> None)

(* Regression: a caller-supplied, already-advanced clock used to count its
   past against a [Virtual_seconds] budget, silently shrinking it. *)
let test_driver_budget_relative_to_clock_start () =
  let target = toy_target () in
  let clock = S.Vclock.create () in
  S.Vclock.advance clock 500.;
  let r =
    Driver.run ~seed:2 ~clock ~target ~algorithm:(Random_search.create ())
      ~budget:(Driver.Virtual_seconds 100.) ()
  in
  Alcotest.(check bool) "iterations actually ran" true (r.Driver.iterations > 1);
  Alcotest.(check bool) "full budget spent" true
    (History.total_eval_seconds r.Driver.history >= 100.)

let test_driver_metrics_counters () =
  let target = toy_target () in
  let r =
    Driver.run ~seed:6 ~target ~algorithm:(Random_search.create ())
      ~budget:(Driver.Iterations 30) ()
  in
  let m = r.Driver.metrics in
  let module M = Wayfinder_obs.Metrics in
  Alcotest.(check (float 1e-9)) "iterations counted" 30. (M.counter m "driver.iterations");
  Alcotest.(check (float 1e-9)) "builds match history"
    (float_of_int (History.builds_charged r.Driver.history))
    (M.counter m "driver.builds_charged");
  Alcotest.(check (float 1e-9)) "virtual seconds counter matches clock"
    (S.Vclock.now r.Driver.clock)
    (M.counter m "driver.virtual_s");
  (* Wall-clock spans were recorded for each phase of every iteration. *)
  (match M.histogram m "driver.propose.wall_s" with
  | Some h -> Alcotest.(check int) "one propose span per iteration" 30 h.M.count
  | None -> Alcotest.fail "missing propose histogram");
  match M.histogram m "driver.iteration.wall_s" with
  | Some h -> Alcotest.(check int) "one iteration span per iteration" 30 h.M.count
  | None -> Alcotest.fail "missing iteration histogram"

(* ------------------------------------------------------------------ *)
(* Grid search                                                         *)
(* ------------------------------------------------------------------ *)

let test_grid_search_enumerates () =
  let space =
    Space.create
      [ Wayfinder_configspace.Param.bool_param "a" false;
        Wayfinder_configspace.Param.categorical_param "c" [| "x"; "y"; "z" |] ~default:0 ]
  in
  let target =
    Target.make ~name:"t" ~space ~metric:Metric.throughput (fun ~trial:_ config ->
        let v =
          (match config.(0) with Param.Vbool true -> 10. | _ -> 0.)
          +. (match config.(1) with Param.Vcat i -> float_of_int i | _ -> 0.)
        in
        { Target.value = Ok v; build_s = 0.; boot_s = 0.; run_s = 1.; objectives = [||] })
  in
  let r =
    Driver.run ~target ~algorithm:(Grid_search.create ()) ~budget:(Driver.Iterations 6) ()
  in
  (* Six iterations cover the whole 2x3 grid exactly once. *)
  let seen = Hashtbl.create 6 in
  Array.iter
    (fun e -> Hashtbl.replace seen e.History.config ())
    (History.entries r.Driver.history);
  Alcotest.(check int) "all distinct" 6 (Hashtbl.length seen);
  Alcotest.(check (option (float 1e-9))) "optimum enumerated" (Some 12.)
    (History.best_value r.Driver.history)

let test_grid_search_respects_pins () =
  let space =
    Space.create
      [ Wayfinder_configspace.Param.bool_param "a" false;
        Wayfinder_configspace.Param.bool_param "pinned" true ]
  in
  let space = Space.fix space [ ("pinned", Param.Vbool true) ] in
  let target =
    Target.make ~name:"t" ~space ~metric:Metric.throughput (fun ~trial:_ _ ->
        { Target.value = Ok 1.; build_s = 0.; boot_s = 0.; run_s = 1.; objectives = [||] })
  in
  let r =
    Driver.run ~target ~algorithm:(Grid_search.create ()) ~budget:(Driver.Iterations 10) ()
  in
  Alcotest.(check int) "pinned excluded from grid" 2 r.Driver.iterations;
  Array.iter
    (fun e -> Alcotest.(check bool) "pin held" true (e.History.config.(1) = Param.Vbool true))
    (History.entries r.Driver.history)

(* ------------------------------------------------------------------ *)
(* Bayesian optimization                                               *)
(* ------------------------------------------------------------------ *)

let test_bayes_beats_random_on_toy () =
  (* On a smooth low-dimensional problem with a modest budget, EI search
     should find the optimum at least as reliably as random draws. *)
  let space =
    Space.create [ Wayfinder_configspace.Param.int_param "x" ~lo:0 ~hi:100 ~default:50 ]
  in
  let target =
    Target.make ~name:"smooth" ~space ~metric:Metric.throughput (fun ~trial:_ config ->
        match config.(0) with
        | Param.Vint x ->
          let fx = -.((float_of_int x -. 73.) ** 2.) in
          { Target.value = Ok fx; build_s = 0.; boot_s = 0.; run_s = 1.; objectives = [||] }
        | Param.Vbool _ | Param.Vtristate _ | Param.Vcat _ ->
          { Target.value = Error (Failure.Other "bad"); build_s = 0.; boot_s = 0.; run_s = 0.; objectives = [||] })
  in
  let best algo seed =
    let r = Driver.run ~seed ~target ~algorithm:algo ~budget:(Driver.Iterations 30) () in
    Option.value ~default:neg_infinity (History.best_value r.Driver.history)
  in
  let bayes_score = best (Bayes_search.create ()) 5 in
  Alcotest.(check bool)
    (Printf.sprintf "bayes found near-optimum (%.1f)" bayes_score)
    true (bayes_score > -25.)

let test_bayes_handles_crashes () =
  let target = toy_target () in
  let r =
    Driver.run ~seed:6 ~target ~algorithm:(Bayes_search.create ())
      ~budget:(Driver.Iterations 40) ()
  in
  (* Must not raise, and must still find good configurations. *)
  Alcotest.(check bool) "found > 90" true
    (Option.value ~default:0. (History.best_value r.Driver.history) > 90.)

(* A Bayes run on sim-linux redis, one line per entry:
   "w<workers> <config_key> <value as %h, or - on failure>". *)
let bayes_redis_trajectory ~seed ~n ~workers algorithm =
  let target = Targets.of_sim_linux (S.Sim_linux.create ()) ~app:S.App.Redis in
  let r = Driver.run ~seed ~workers ~target ~algorithm ~budget:(Driver.Iterations n) () in
  Array.to_list
    (Array.map
       (fun e ->
         Printf.sprintf "w%d %s %s" workers
           (Param.config_key e.History.config)
           (match e.History.value with Some v -> Param.float_field v | None -> "-"))
       (History.entries r.Driver.history))

(* The searcher's trajectory on sim-linux redis (n=40, seed 11) at one
   worker and at four, where picks come from constant-liar batches, as
   recorded before the candidate pool was scored in one batch. *)
let test_bayes_golden_trajectory () =
  let trajectory workers =
    bayes_redis_trajectory ~seed:11 ~n:40 ~workers (Bayes_search.create ())
  in
  Golden_file.check "bayes_redis_seed11.txt" (trajectory 1 @ trajectory 4)

(* Runs past [max_points] (n=60, seed 5, pool 64), so the training window
   slides; at three and four workers the first fill comes from one
   constant-liar batch.  Recorded while the GP refit every Gram entry
   from lists of points. *)
let test_bayes_window_trajectory () =
  let trajectory ~max_points workers =
    bayes_redis_trajectory ~seed:5 ~n:60 ~workers (Bayes_search.create ~max_points ~pool:64 ())
  in
  Golden_file.check "bayes_window_seed5.txt"
    (trajectory ~max_points:16 1 @ trajectory ~max_points:16 4 @ trajectory ~max_points:23 3)

(* The runtime-favoured sampler (n=40, seed 3, workers 1 and 4): every
   warm-up draw, every pool candidate and the acquisition's re-draw of
   its winner go through [Space.sample_biased].  Recorded while the
   acquisition kept every candidate of its pool alive. *)
let test_bayes_favor_trajectory () =
  let trajectory workers =
    bayes_redis_trajectory ~seed:3 ~n:40 ~workers (Bayes_search.create ~favor:Param.Runtime ())
  in
  Golden_file.check "bayes_favor_seed3.txt" (trajectory 1 @ trajectory 4)

(* The acquisition keeps no candidate pool alive.  A 60-step run on
   sim-linux redis (pool 200, 52 acquisitions) may promote at most
   [bound] words from the minor heap to the major heap.  An acquisition
   that held its 200 candidates and their encodings through the EI pass
   promoted about 150 k words, 7.6 M over this run; with an RNG snapshot
   per candidate the run promotes about 0.18 M.  The test bounds
   survivors, not speed. *)
let test_bayes_promotes_no_pool () =
  let bound = 1_500_000. in
  let target = Targets.of_sim_linux (S.Sim_linux.create ()) ~app:S.App.Redis in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  let r =
    Driver.run ~seed:1 ~target ~algorithm:(Bayes_search.create ())
      ~budget:(Driver.Iterations 60) ()
  in
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
  Alcotest.(check int) "iterations" 60 r.Driver.iterations;
  if promoted > bound then
    Alcotest.failf "a 60-step Bayes run promoted %.0f words (bound %.0f)" promoted bound

(* The searcher driven directly through constant-liar batches of one to
   five picks between observations, which a driver run asks for only at
   its first fill: the lies then carry the incumbent score, stack past a
   10-point window and are popped before the batch's outcomes arrive.
   Every seventh outcome becomes a transient fault, which the searcher
   ignores.  One line per pick: "k<batch size> <config_key> <value as %h,
   or - on failure>".  Recorded while the searcher kept lists. *)
let test_bayes_liar_trajectory () =
  let target = Targets.of_sim_linux (S.Sim_linux.create ()) ~app:S.App.Redis in
  let metric = target.Target.metric in
  let algo = Bayes_search.create ~n_init:4 ~max_points:10 ~pool:32 () in
  let ctx =
    { Search_algorithm.space = target.Target.space; metric; history = History.create metric;
      rng = Rng.create 5; obs = Wayfinder_obs.Recorder.null () }
  in
  let propose_batch = Option.get algo.Search_algorithm.propose_batch in
  let trial = ref 0 in
  let batch k =
    List.map
      (fun config ->
        let value, failure =
          match (target.Target.evaluate ~trial:!trial config).Target.value with
          | _ when !trial mod 7 = 6 -> (None, Some Failure.Spurious_failure)
          | Ok v -> (Some v, None)
          | Error f -> (None, Some f)
        in
        algo.Search_algorithm.observe ctx
          { History.index = !trial; config; value; failure; at_seconds = 0.; eval_seconds = 0.;
            built = false; decide_seconds = 0.; objectives = None };
        incr trial;
        Printf.sprintf "k%d %s %s" k (Param.config_key config)
          (match value with Some v -> Param.float_field v | None -> "-"))
      (propose_batch ctx ~k)
  in
  Golden_file.check "bayes_liar_seed5.txt"
    (List.concat_map batch [ 3; 1; 4; 2; 5; 3; 5; 1; 4; 5; 2; 5; 3; 4; 5 ])

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= hn && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_report_of_result () =
  let target = toy_target () in
  let r =
    Driver.run ~seed:9 ~target ~algorithm:(Random_search.create ())
      ~budget:(Driver.Iterations 50) ()
  in
  let report = Report.of_result ~default:80. ~algorithm:"random" ~target r in
  Alcotest.(check int) "iterations" 50 report.Report.iterations;
  Alcotest.(check string) "target name" "toy" report.Report.target_name;
  (match report.Report.best with
   | Some b ->
     Alcotest.(check (float 1e-9)) "best value" 100. b.Report.value;
     (match b.Report.relative with
      | Some (Report.Ratio r) -> Alcotest.(check (float 1e-9)) "relative" 1.25 r
      | Some Report.Not_applicable | None -> Alcotest.fail "expected a relative ratio");
     Alcotest.(check bool) "diff recorded" true (b.Report.changed <> [])
   | None -> Alcotest.fail "expected a best entry");
  let text = Report.to_text report in
  Alcotest.(check bool) "text mentions target" true (contains text "toy");
  Alcotest.(check bool) "text mentions relative" true (contains text "1.25x")

let test_report_minimised_metric () =
  let space = Space.create [ Wayfinder_configspace.Param.int_param "x" ~lo:0 ~hi:10 ~default:5 ] in
  let target =
    Target.make ~name:"mem" ~space ~metric:Metric.memory_mb (fun ~trial:_ config ->
        match config.(0) with
        | Param.Vint x ->
          { Target.value = Ok (200. +. float_of_int x); build_s = 0.; boot_s = 0.; run_s = 1.; objectives = [||] }
        | _ -> { Target.value = Error (Failure.Other "bad"); build_s = 0.; boot_s = 0.; run_s = 0.; objectives = [||] })
  in
  let r =
    Driver.run ~seed:1 ~target ~algorithm:(Random_search.create ())
      ~budget:(Driver.Iterations 40) ()
  in
  let report = Report.of_result ~default:205. ~algorithm:"random" ~target r in
  match report.Report.best with
  | Some b ->
    Alcotest.(check (float 1e-9)) "lowest found" 200. b.Report.value;
    (match b.Report.relative with
     | Some (Report.Ratio r) ->
       Alcotest.(check (float 1e-9)) "relative inverts for minimised" 1.025 r
     | Some Report.Not_applicable | None -> Alcotest.fail "expected a relative ratio")
  | None -> Alcotest.fail "expected best"

let test_report_degenerate_default_is_na () =
  (* A zero (or non-finite) reference must render as "n/a", never inf/nan
     from an unguarded division. *)
  let target = toy_target () in
  let r =
    Driver.run ~seed:9 ~target ~algorithm:(Random_search.create ())
      ~budget:(Driver.Iterations 20) ()
  in
  let check_na name default =
    let report = Report.of_result ~default ~algorithm:"random" ~target r in
    (match report.Report.best with
     | Some b ->
       Alcotest.(check bool) (name ^ " is Not_applicable") true
         (b.Report.relative = Some Report.Not_applicable)
     | None -> Alcotest.fail "expected a best entry");
    let text = Report.to_text report in
    Alcotest.(check bool) (name ^ " renders n/a") true (contains text "n/a vs the default");
    Alcotest.(check bool) (name ^ " renders no inf/nan") false
      (contains text "inf" || contains text "nan")
  in
  check_na "zero default" 0.;
  check_na "nan default" Float.nan;
  check_na "inf default" Float.infinity

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_driver_history_indices_sequential =
  QCheck2.Test.make ~name:"history indices are sequential" ~count:20
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let target = toy_target () in
      let r =
        Driver.run ~seed ~target ~algorithm:(Random_search.create ())
          ~budget:(Driver.Iterations 15) ()
      in
      let es = History.entries r.Driver.history in
      Array.for_all (fun e -> e.History.index = es.(e.History.index).History.index) es
      && Array.length es = 15)

let prop_clock_monotone =
  QCheck2.Test.make ~name:"entry timestamps are monotone" ~count:20
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let target = toy_target () in
      let r =
        Driver.run ~seed ~target ~algorithm:(Random_search.create ())
          ~budget:(Driver.Iterations 20) ()
      in
      let es = History.entries r.Driver.history in
      let ok = ref true in
      for i = 1 to Array.length es - 1 do
        if es.(i).History.at_seconds < es.(i - 1).History.at_seconds then ok := false
      done;
      !ok)

let () =
  Alcotest.run "platform"
    [ ( "metric",
        [ Alcotest.test_case "score direction" `Quick test_metric_score_direction;
          Alcotest.test_case "of_app" `Quick test_metric_of_app ] );
      ( "history",
        [ Alcotest.test_case "best and crashes" `Quick test_history_best_and_crashes;
          Alcotest.test_case "minimised metric" `Quick test_history_best_under_minimised_metric;
          Alcotest.test_case "series" `Quick test_history_series;
          Alcotest.test_case "windowed crash rate" `Quick test_history_windowed_crash_rate;
          Alcotest.test_case "csv export" `Quick test_history_csv;
          Alcotest.test_case "csv quoting roundtrip" `Quick test_history_csv_quoting_roundtrip;
          Alcotest.test_case "empty and all-failure series" `Quick
            test_history_empty_and_all_failure_series;
          Alcotest.test_case "window edge cases" `Quick test_history_window_edge_cases ] );
      ( "driver",
        [ Alcotest.test_case "iteration budget" `Quick test_driver_iteration_budget;
          Alcotest.test_case "virtual time budget" `Quick test_driver_virtual_time_budget;
          Alcotest.test_case "finds optimum on toy" `Quick test_driver_finds_optimum_on_toy;
          Alcotest.test_case "rebuild skip" `Quick test_driver_rebuild_skip;
          Alcotest.test_case "deterministic" `Quick test_driver_deterministic;
          Alcotest.test_case "invalid proposals recorded" `Quick test_driver_invalid_proposal_recorded;
          Alcotest.test_case "invalid terminates virtual budget" `Quick
            test_driver_invalid_terminates_virtual_budget;
          Alcotest.test_case "invalid floor configurable" `Quick
            test_driver_invalid_floor_configurable;
          Alcotest.test_case "invalid cap stops the run" `Quick test_driver_invalid_cap;
          Alcotest.test_case "valid proposal resets cap" `Quick
            test_driver_valid_proposal_resets_cap;
          Alcotest.test_case "phase timings sum to history" `Quick
            test_driver_metrics_phases_sum_to_history;
          Alcotest.test_case "best_relative_to guards zero reference" `Quick
            test_driver_best_relative_to_zero_default;
          Alcotest.test_case "budget relative to clock start" `Quick
            test_driver_budget_relative_to_clock_start;
          Alcotest.test_case "metrics counters" `Quick test_driver_metrics_counters ] );
      ( "grid",
        [ Alcotest.test_case "enumerates" `Quick test_grid_search_enumerates;
          Alcotest.test_case "respects pins" `Quick test_grid_search_respects_pins ] );
      ( "bayes",
        [ Alcotest.test_case "finds optimum on smooth toy" `Quick test_bayes_beats_random_on_toy;
          Alcotest.test_case "handles crashes" `Quick test_bayes_handles_crashes;
          Alcotest.test_case "golden trajectory" `Quick test_bayes_golden_trajectory;
          Alcotest.test_case "sliding window trajectory" `Quick test_bayes_window_trajectory;
          Alcotest.test_case "favoured sampler trajectory" `Quick test_bayes_favor_trajectory;
          Alcotest.test_case "acquisition promotes no pool" `Quick test_bayes_promotes_no_pool;
          Alcotest.test_case "constant-liar batches" `Quick test_bayes_liar_trajectory ] );
      ( "report",
        [ Alcotest.test_case "of_result and rendering" `Quick test_report_of_result;
          Alcotest.test_case "minimised metric" `Quick test_report_minimised_metric;
          Alcotest.test_case "degenerate default renders n/a" `Quick
            test_report_degenerate_default_is_na ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_driver_history_indices_sequential; prop_clock_monotone ] ) ]
