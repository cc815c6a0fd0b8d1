(* Cross-algorithm conformance suite for the batched multi-worker engine.

   Every algorithm (random, grid, bayes, deeptune, unicorn) is run through
   the same invariant battery on the sequential driver, the engine at
   workers=1 and the engine at workers=4; qcheck properties then pin the
   stronger guarantees: run ~workers:1 is byte-identical to the sequential
   loop, grid evaluates the same configuration multiset at any worker
   count, and a killed workers=4 run under faults resumes to the exact
   uninterrupted trajectory. *)

open Wayfinder_platform
module C = Conformance
module S = Wayfinder_simos
module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Obs = Wayfinder_obs

let budget_n = 12

(* ------------------------------------------------------------------ *)
(* The invariant battery                                               *)
(* ------------------------------------------------------------------ *)

let battery algo engine () =
  let a = C.run ~engine ~seed:7 ~budget:(Driver.Iterations budget_n) algo in
  let b = C.run ~engine ~seed:7 ~budget:(Driver.Iterations budget_n) algo in
  let r = a.C.result in
  (* Same seed, same run — byte-for-byte. *)
  Alcotest.(check string) "deterministic CSV"
    (History.to_csv r.Driver.history)
    (History.to_csv b.C.result.Driver.history);
  Alcotest.(check bool) "deterministic metrics" true
    (r.Driver.metrics = b.C.result.Driver.metrics);
  (* Budget and stop reason. *)
  Alcotest.(check int) "iteration budget honoured" budget_n r.Driver.iterations;
  Alcotest.(check bool) "stopped on budget" true
    (r.Driver.stop_reason = Driver.Budget_exhausted);
  (* History length = evaluations = driver.iterations counter. *)
  Alcotest.(check int) "history length" budget_n (History.size r.Driver.history);
  Alcotest.(check (float 0.)) "driver.iterations counter" (float_of_int budget_n)
    (Obs.Metrics.counter r.Driver.metrics "driver.iterations");
  (* Phase-sum invariant: the virtual phase histograms account for every
     charged second. *)
  Alcotest.(check bool) "phase sum equals history" true
    (Float.abs (C.phase_sum r -. History.total_eval_seconds r.Driver.history) < 1e-6);
  (* The clock reads the makespan: the latest completion. *)
  let latest =
    Array.fold_left
      (fun acc (e : History.entry) -> Float.max acc e.History.at_seconds)
      0. (C.entries r)
  in
  Alcotest.(check (float 1e-9)) "clock reads the makespan" latest
    (S.Vclock.now r.Driver.clock);
  (* Observe-exactly-once, for exactly the proposal indices 0..n-1. *)
  Alcotest.(check int) "every entry observed" budget_n (Hashtbl.length a.C.observed);
  for index = 0 to budget_n - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "entry %d observed exactly once" index)
      (Some 1)
      (Hashtbl.find_opt a.C.observed index)
  done

let engines = [ ("sequential", `Sequential); ("workers=1", `Workers 1); ("workers=4", `Workers 4) ]

let battery_cases =
  List.concat_map
    (fun (ename, engine) ->
      List.map
        (fun algo ->
          Alcotest.test_case (Printf.sprintf "%s on %s" algo ename) `Quick
            (battery algo engine))
        C.names)
    engines

(* ------------------------------------------------------------------ *)
(* workers=1 ≡ sequential (byte-for-byte)                              *)
(* ------------------------------------------------------------------ *)

let equivalent a b =
  C.entries a.C.result = C.entries b.C.result
  && a.C.result.Driver.metrics = b.C.result.Driver.metrics
  && S.Vclock.now a.C.result.Driver.clock = S.Vclock.now b.C.result.Driver.clock
  && a.C.result.Driver.stop_reason = b.C.result.Driver.stop_reason
  && a.C.result.Driver.iterations = b.C.result.Driver.iterations

let prop_workers1_equals_sequential =
  QCheck2.Test.make ~name:"run ~workers:1 byte-identical to the sequential driver" ~count:16
    QCheck2.Gen.(
      triple (int_range 0 1000)
        (oneofl [ "random"; "grid"; "bayes"; "unicorn" ])
        bool)
    (fun (seed, algo, faulty) ->
      let fault_rate = if faulty then 0.10 else 0. in
      let budget = Driver.Iterations 10 in
      let a = C.run ~engine:`Sequential ~seed ~budget ~fault_rate algo in
      let b = C.run ~engine:(`Workers 1) ~seed ~budget ~fault_rate algo in
      equivalent a b)

(* DeepTune is too slow for the qcheck loop; one pinned case. *)
let test_deeptune_workers1_equivalence () =
  let budget = Driver.Iterations 10 in
  let a = C.run ~engine:`Sequential ~seed:3 ~budget "deeptune" in
  let b = C.run ~engine:(`Workers 1) ~seed:3 ~budget "deeptune" in
  Alcotest.(check bool) "deeptune workers=1 equivalence" true (equivalent a b)

let prop_grid_multiset_any_workers =
  QCheck2.Test.make ~name:"grid evaluates the same multiset at any worker count" ~count:10
    QCheck2.Gen.(pair (int_range 0 500) (int_range 2 8))
    (fun (seed, workers) ->
      let budget = Driver.Iterations budget_n in
      let a = C.run ~engine:(`Workers 1) ~seed ~budget "grid" in
      let b = C.run ~engine:(`Workers workers) ~seed ~budget "grid" in
      C.config_multiset a.C.result = C.config_multiset b.C.result)

(* The tentpole safety net: an explicit capacity-1 shared cache at
   workers=1 must be byte-for-byte the sequential oracle — the cache
   degenerates to the historical single "last built image" baseline. *)
let prop_cache_capacity1_workers1_equals_sequential =
  QCheck2.Test.make
    ~name:"image-cache capacity 1 + workers=1 byte-identical to the sequential driver"
    ~count:12
    QCheck2.Gen.(
      triple (int_range 0 1000)
        (oneofl [ "random"; "grid"; "bayes"; "unicorn" ])
        bool)
    (fun (seed, algo, faulty) ->
      let fault_rate = if faulty then 0.10 else 0. in
      let budget = Driver.Iterations 10 in
      let image_cache = Image_cache.capacity 1 in
      let a = C.run ~engine:`Sequential ~seed ~budget ~fault_rate ~image_cache algo in
      let b = C.run ~engine:(`Workers 1) ~seed ~budget ~fault_rate ~image_cache algo in
      equivalent a b)

(* ------------------------------------------------------------------ *)
(* Domain-pool conformance: --domains N is byte-identical              *)
(* ------------------------------------------------------------------ *)

(* The multicore acceptance gate: a run with an ambient pool for the
   numeric kernels must be byte-for-byte the sequential oracle, for every
   algorithm, at any domain count.  Domains only buy wall-clock time,
   never a different answer. *)
let prop_domains_equal_sequential =
  QCheck2.Test.make
    ~name:"pooled engine (domains in {1,4}) byte-identical to the sequential driver"
    ~count:12
    QCheck2.Gen.(
      quad (int_range 0 1000)
        (oneofl [ "random"; "grid"; "bayes"; "unicorn" ])
        bool (oneofl [ 1; 4 ]))
    (fun (seed, algo, faulty, domains) ->
      let fault_rate = if faulty then 0.10 else 0. in
      let budget = Driver.Iterations 10 in
      let a = C.run ~engine:`Sequential ~seed ~budget ~fault_rate algo in
      let b = C.run ~engine:(`Workers 1) ~seed ~budget ~fault_rate ~domains algo in
      equivalent a b)

(* The ambient pool must be invisible on the batched engine too: workers=4
   with a pool is byte-identical to workers=4 without one. *)
let prop_domains_invisible_on_workers4 =
  QCheck2.Test.make
    ~name:"workers=4 with domains=4 byte-identical to workers=4 unpooled" ~count:10
    QCheck2.Gen.(
      triple (int_range 0 1000) (oneofl [ "random"; "grid"; "bayes"; "unicorn" ]) bool)
    (fun (seed, algo, faulty) ->
      let fault_rate = if faulty then 0.10 else 0. in
      let budget = Driver.Iterations 12 in
      let a = C.run ~engine:(`Workers 4) ~seed ~budget ~fault_rate algo in
      let b = C.run ~engine:(`Workers 4) ~seed ~budget ~fault_rate ~domains:4 algo in
      equivalent a b)

(* DeepTune is where the ambient pool does real work — matmul in training
   and the batched pool scoring — so this pins the pooled kernels against
   the sequential oracle on both engines. *)
let test_deeptune_domains_equivalence () =
  let budget = Driver.Iterations 10 in
  let a = C.run ~engine:`Sequential ~seed:3 ~budget "deeptune" in
  let b = C.run ~engine:(`Workers 1) ~seed:3 ~budget ~domains:4 "deeptune" in
  Alcotest.(check bool) "deeptune domains=4 equivalence" true (equivalent a b);
  let c = C.run ~engine:(`Workers 4) ~seed:3 ~budget "deeptune" in
  let d = C.run ~engine:(`Workers 4) ~seed:3 ~budget ~domains:4 "deeptune" in
  Alcotest.(check bool) "deeptune workers=4 domains=4 equivalence" true (equivalent c d)

(* The engine evaluates every launch inline, in launch order, whatever the
   pool, so a pooled run records the very event stream of an unpooled one.
   Random and unicorn have no [propose_batch]: every fill goes through the
   interleaved propose-and-launch loop, which launches four proposals at
   the first fill. *)
let prop_domains_trace_identical =
  QCheck2.Test.make ~name:"workers=4 with domains=4 records the unpooled trace" ~count:8
    QCheck2.Gen.(triple (int_range 0 1000) (oneofl [ "random"; "unicorn" ]) bool)
    (fun (seed, algo, faulty) ->
      let fault_rate = if faulty then 0.10 else 0. in
      let events ?domains () =
        let store = Obs.Sink.Memory.create ~capacity:100_000 () in
        ignore
          (C.run ~engine:(`Workers 4) ~seed ~budget:(Driver.Iterations 12) ~fault_rate ?domains
             ~sink:(Obs.Sink.Memory.sink store) algo);
        List.map Obs.Event.to_json (Obs.Sink.Memory.events store)
      in
      let plain = events () in
      plain <> [] && plain = events ~domains:4 ())

(* The cache only decides whether the build phase is charged — never which
   configurations are evaluated.  Grid's multiset must be invariant across
   both the worker count and the cache capacity. *)
let prop_grid_multiset_any_capacity =
  QCheck2.Test.make
    ~name:"grid evaluates the same multiset at any cache capacity" ~count:10
    QCheck2.Gen.(triple (int_range 0 500) (int_range 1 8) (int_range 1 16))
    (fun (seed, workers, capacity) ->
      let budget = Driver.Iterations budget_n in
      let a = C.run ~engine:(`Workers 1) ~seed ~budget "grid" in
      let b =
        C.run ~engine:(`Workers workers) ~seed ~budget
          ~image_cache:(Image_cache.capacity capacity) "grid"
      in
      C.config_multiset a.C.result = C.config_multiset b.C.result)

(* ------------------------------------------------------------------ *)
(* Checkpoint format compatibility                                     *)
(* ------------------------------------------------------------------ *)

let test_old_version_rejected_typed () =
  (match Checkpoint.of_string "wayfinder-checkpoint 1\nend\n" with
  | Error (Checkpoint.Unsupported_version { found = 1; expected = 6 }) -> ()
  | Error e ->
    Alcotest.failf "expected Unsupported_version, got: %s" (Checkpoint.error_to_string e)
  | Ok _ -> Alcotest.fail "v1 checkpoint accepted");
  (* Format 2 (per-slot baselines, no image cache) is likewise rejected
     typed: its [slot] lines cannot express the shared cache state. *)
  (match Checkpoint.of_string "wayfinder-checkpoint 2\nend\n" with
  | Error (Checkpoint.Unsupported_version { found = 2; expected = 6 }) -> ()
  | Error e ->
    Alcotest.failf "expected Unsupported_version for v2, got: %s"
      (Checkpoint.error_to_string e)
  | Ok _ -> Alcotest.fail "v2 checkpoint accepted");
  (* Format 3 keyed quarantine strikes on the truncated polymorphic hash
     and is rejected too: its strike lines cannot be mapped onto the
     canonical string keys. *)
  (match Checkpoint.of_string "wayfinder-checkpoint 3\nend\n" with
  | Error (Checkpoint.Unsupported_version { found = 3; expected = 6 }) -> ()
  | Error e ->
    Alcotest.failf "expected Unsupported_version for v3, got: %s"
      (Checkpoint.error_to_string e)
  | Ok _ -> Alcotest.fail "v3 checkpoint accepted");
  (* Format 4 predates the Pareto archive and trace cursor; its bodies
     parse as a strict prefix of format 5, so the version gate is what
     rejects it. *)
  (match Checkpoint.of_string "wayfinder-checkpoint 4\nend\n" with
  | Error (Checkpoint.Unsupported_version { found = 4; expected = 6 }) -> ()
  | Error e ->
    Alcotest.failf "expected Unsupported_version for v4, got: %s"
      (Checkpoint.error_to_string e)
  | Ok _ -> Alcotest.fail "v4 checkpoint accepted");
  (* Format 5 was one sealed envelope, rewritten whole by every save;
     the version gate rejects it ahead of the journal's record checks,
     even with its trailer intact. *)
  (match
     Checkpoint.of_string
       (Envelope.seal "wayfinder-checkpoint 5\nseed 7\niterations 0\nworkers 1\nend\n")
   with
  | Error (Checkpoint.Unsupported_version { found = 5; expected = 6 }) -> ()
  | Error e ->
    Alcotest.failf "expected Unsupported_version for v5, got: %s"
      (Checkpoint.error_to_string e)
  | Ok _ -> Alcotest.fail "v5 checkpoint accepted");
  match Checkpoint.load ~path:"/nonexistent/wayfinder.ckpt" with
  | Error (Checkpoint.Malformed _) -> ()
  | Error (Checkpoint.Unsupported_version _) ->
    Alcotest.fail "missing file reported as version mismatch"
  | Ok _ -> Alcotest.fail "missing file loaded"

(* Kill a workers=4 run under 10% faults via an exception out of
   [on_iteration], reload the last periodic checkpoint (which carries the
   in-flight slot state), resume, and demand the uninterrupted CSV. *)
let kill_and_resume ~seed ~interrupt_at =
  let budget = Driver.Iterations 24 in
  let engine = `Workers 4 in
  let fault_rate = 0.10 in
  let full = C.run ~engine ~seed ~budget ~fault_rate "random" in
  let path = Filename.temp_file "wayfinder" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let completions = ref 0 in
      (try
         ignore
           (C.run ~engine ~seed ~budget ~fault_rate ~checkpoint_path:path ~checkpoint_every:5
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
        let resumed = C.run ~engine ~seed ~budget ~fault_rate ~resume_from:ck "random" in
        ( ck,
          History.to_csv full.C.result.Driver.history,
          History.to_csv resumed.C.result.Driver.history ))

let test_resume_mid_batch_with_inflight () =
  let ck, full_csv, resumed_csv = kill_and_resume ~seed:11 ~interrupt_at:12 in
  (* The interesting case: the checkpoint caught tasks mid-flight. *)
  Alcotest.(check bool) "checkpoint carries in-flight tasks" true
    (ck.Checkpoint.inflight <> []);
  Alcotest.(check int) "checkpoint written by workers=4" 4 ck.Checkpoint.workers;
  Alcotest.(check string) "resume reproduces the full run" full_csv resumed_csv

let prop_kill_and_resume_workers4 =
  QCheck2.Test.make ~name:"workers=4 kill-and-resume reproduces the run under faults" ~count:6
    QCheck2.Gen.(pair (int_range 0 300) (int_range 6 20))
    (fun (seed, interrupt_at) ->
      let _, full_csv, resumed_csv = kill_and_resume ~seed ~interrupt_at in
      full_csv = resumed_csv)

(* ------------------------------------------------------------------ *)
(* Scenario conformance: trace replay + multi-objective invariants     *)
(* ------------------------------------------------------------------ *)

let archives_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ia, va) (ib, vb) -> ia = ib && Objective.equal_vec va vb)
       a b

let entry_with_index entries i =
  Array.find_opt (fun (e : History.entry) -> e.History.index = i) entries

(* Every searcher — including the deeptune-multi adapter — through the
   existing battery invariants under trace replay, plus the archive
   invariants: no archive point dominates another, every archive point is
   the bitwise vector of a successful entry, and archive/cursor/CSV are
   all deterministic. *)
let scenario_battery algo engine () =
  let budget = Driver.Iterations budget_n in
  let a, cursor_a = C.run_scenario ~engine ~seed:7 ~budget algo in
  let b, cursor_b = C.run_scenario ~engine ~seed:7 ~budget algo in
  let r = a.C.result in
  Alcotest.(check string) "deterministic CSV"
    (History.to_csv r.Driver.history)
    (History.to_csv b.C.result.Driver.history);
  Alcotest.(check int) "iteration budget honoured" budget_n r.Driver.iterations;
  Alcotest.(check bool) "stopped on budget" true
    (r.Driver.stop_reason = Driver.Budget_exhausted);
  Alcotest.(check bool) "phase sum equals history" true
    (Float.abs (C.phase_sum r -. History.total_eval_seconds r.Driver.history) < 1e-6);
  (* The cursor advances once per launched evaluation, deterministically. *)
  Alcotest.(check int) "cursor advanced once per launch" budget_n cursor_a;
  Alcotest.(check int) "deterministic cursor" cursor_a cursor_b;
  (* Observe-exactly-once survives the scenario path. *)
  Alcotest.(check int) "every entry observed" budget_n (Hashtbl.length a.C.observed);
  for index = 0 to budget_n - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "entry %d observed exactly once" index)
      (Some 1)
      (Hashtbl.find_opt a.C.observed index)
  done;
  (* Successful entries carry a full vector; failures carry none. *)
  let entries = C.entries r in
  Array.iter
    (fun (e : History.entry) ->
      match (e.History.value, e.History.objectives) with
      | Some _, Some v ->
        Alcotest.(check int)
          (Printf.sprintf "entry %d vector arity" e.History.index)
          (Array.length C.scenario_spec) (Array.length v)
      | Some _, None ->
        Alcotest.failf "successful entry %d lost its vector" e.History.index
      | None, Some _ ->
        Alcotest.failf "failed entry %d kept a vector" e.History.index
      | None, None -> ())
    entries;
  (* Archive invariants. *)
  let front = C.archive_list r in
  Alcotest.(check bool) "archive non-empty" true (front <> []);
  Alcotest.(check bool) "deterministic archive" true
    (archives_equal front (C.archive_list b.C.result));
  let spec = Pareto.spec r.Driver.pareto in
  List.iter
    (fun (i, v) ->
      List.iter
        (fun (j, w) ->
          if i <> j then
            Alcotest.(check bool)
              (Printf.sprintf "archive point %d not dominated by %d" i j)
              false (Objective.dominates spec w v))
        front;
      match entry_with_index entries i with
      | Some e ->
        Alcotest.(check bool)
          (Printf.sprintf "archive point %d is entry %d's vector" i i)
          true
          (match e.History.objectives with
          | Some w -> Objective.equal_vec v w
          | None -> false)
      | None -> Alcotest.failf "archive point %d has no entry" i)
    front

let scenario_battery_cases =
  List.concat_map
    (fun (ename, engine) ->
      List.map
        (fun algo ->
          Alcotest.test_case
            (Printf.sprintf "scenario: %s on %s" algo ename)
            `Quick (scenario_battery algo engine))
        C.scenario_names)
    engines

(* The archive is a pure function of the set of completed points, so for
   searchers whose proposal stream is independent of observation order
   (random's per-index RNG, grid's enumeration) the front is bitwise
   identical across worker counts.  Adaptive searchers can evaluate a
   different set at different parallelism — for them the invariant under
   test is sequential ≡ workers=1. *)
let test_scenario_archive_worker_invariance () =
  List.iter
    (fun algo ->
      let budget = Driver.Iterations budget_n in
      let a, ca = C.run_scenario ~engine:(`Workers 1) ~seed:7 ~budget algo in
      let b, cb = C.run_scenario ~engine:(`Workers 4) ~seed:7 ~budget algo in
      Alcotest.(check int) (algo ^ ": cursor identical across worker counts") ca cb;
      Alcotest.(check bool)
        (algo ^ ": archive identical across worker counts")
        true
        (archives_equal (C.archive_list a.C.result) (C.archive_list b.C.result)))
    [ "random"; "grid" ]

let test_scenario_workers1_equals_sequential () =
  List.iter
    (fun algo ->
      let budget = Driver.Iterations budget_n in
      let a, ca = C.run_scenario ~engine:`Sequential ~seed:7 ~budget algo in
      let b, cb = C.run_scenario ~engine:(`Workers 1) ~seed:7 ~budget algo in
      Alcotest.(check int) (algo ^ ": cursor equal") ca cb;
      Alcotest.(check bool) (algo ^ ": workers=1 equivalence") true (equivalent a b);
      Alcotest.(check bool)
        (algo ^ ": archive equal")
        true
        (archives_equal (C.archive_list a.C.result) (C.archive_list b.C.result)))
    C.scenario_names

(* ------------------------------------------------------------------ *)
(* Degenerate weights: (1, 0, 0) ≡ single-objective, byte-for-byte     *)
(* ------------------------------------------------------------------ *)

(* The scalarizer's contract (zero-weight terms skipped, a lone weight-1
   term returned without arithmetic) lifted to whole trajectories: a
   3-objective run under Weighted_sum (1, 0, 0) must produce the same CSV
   bytes as a run whose target only measures the first objective. *)
let degenerate_pair ~engine ~seed ~fault_rate algo =
  let budget = Driver.Iterations budget_n in
  let single, _ =
    C.run_scenario ~engine ~seed ~budget ~fault_rate
      ~spec:[| C.scenario_spec.(0) |] algo
  in
  let multi, _ =
    C.run_scenario ~engine ~seed ~budget ~fault_rate
      ~scalarize:(Scalarize.Weighted_sum [| 1.; 0.; 0. |]) algo
  in
  ( History.to_csv single.C.result.Driver.history,
    History.to_csv multi.C.result.Driver.history )

let prop_degenerate_weights_single_objective =
  QCheck2.Test.make
    ~name:"weights (1,0,0) reproduce the single-objective trajectory byte-for-byte"
    ~count:12
    QCheck2.Gen.(
      quad (int_range 0 1000)
        (oneofl [ "random"; "grid" ])
        (oneofl [ `Sequential; `Workers 1; `Workers 4 ])
        bool)
    (fun (seed, algo, engine, faulty) ->
      let fault_rate = if faulty then 0.10 else 0. in
      let a, b = degenerate_pair ~engine ~seed ~fault_rate algo in
      a = b)

(* DeepTune is too slow for the qcheck loop; one pinned case (frozen
   recorder, so even decide_s compares byte-for-byte). *)
let test_deeptune_degenerate_weights () =
  let a, b = degenerate_pair ~engine:(`Workers 1) ~seed:3 ~fault_rate:0. "deeptune" in
  Alcotest.(check string) "deeptune (1,0,0) trajectory" a b

(* ------------------------------------------------------------------ *)
(* Grid exhaustion (regression: stop instead of wrapping around)       *)
(* ------------------------------------------------------------------ *)

(* 2 × 3 = 6 grid points. *)
let tiny_target () =
  let space =
    Space.create [ Param.bool_param "a" false; Param.tristate_param "t" 0 ]
  in
  Target.make ~name:"tiny" ~space ~metric:Metric.throughput (fun ~trial config ->
      ignore trial;
      let v =
        match config with
        | [| Param.Vbool b; Param.Vtristate t |] ->
          (if b then 2. else 1.) +. float_of_int t
        | _ -> 0.
      in
      { Target.value = Ok v; build_s = 3.; boot_s = 1.; run_s = 1.; objectives = [||] })

let check_exhausted r =
  Alcotest.(check bool) "stopped with Space_exhausted" true
    (r.Driver.stop_reason = Driver.Space_exhausted);
  Alcotest.(check int) "every grid point evaluated once" 6 r.Driver.iterations;
  Alcotest.(check int) "no duplicates"
    6
    (History.entries r.Driver.history |> Array.to_list
    |> List.map (fun (e : History.entry) -> Array.to_list e.History.config)
    |> List.sort_uniq compare |> List.length)

let test_grid_exhaustion_sequential () =
  let r =
    Driver.run_sequential ~seed:1 ~target:(tiny_target ()) ~algorithm:(Grid_search.create ())
      ~budget:(Driver.Iterations 10) ()
  in
  check_exhausted r

let test_grid_exhaustion_batched_partial () =
  (* 6 points at batch=4: one full batch, then a partial final batch of 2,
     then the exhausted stop — all proposals still evaluated exactly once. *)
  let r =
    Driver.run ~seed:1 ~workers:4 ~batch:4 ~target:(tiny_target ())
      ~algorithm:(Grid_search.create ()) ~budget:(Driver.Iterations 10) ()
  in
  check_exhausted r;
  match Obs.Metrics.histogram r.Driver.metrics "driver.batch.size" with
  | None -> Alcotest.fail "driver.batch.size histogram missing"
  | Some h ->
    Alcotest.(check (float 0.)) "batch sizes sum to the grid" 6. h.Obs.Metrics.sum

(* ------------------------------------------------------------------ *)
(* Speedup acceptance: makespan strictly decreases 1 -> 4 workers      *)
(* ------------------------------------------------------------------ *)

let test_makespan_decreases_with_workers () =
  let makespan workers =
    let target = Targets.of_sim_unikraft (S.Sim_unikraft.create ()) in
    let r =
      Driver.run ~seed:5 ~workers ~target ~algorithm:(Random_search.create ())
        ~budget:(Driver.Iterations 16) ()
    in
    S.Vclock.now r.Driver.clock
  in
  let m1 = makespan 1 and m2 = makespan 2 and m4 = makespan 4 in
  Alcotest.(check bool)
    (Printf.sprintf "makespan decreasing: %.0f > %.0f > %.0f" m1 m2 m4)
    true
    (m1 > m2 && m2 > m4)

let () =
  Alcotest.run "conformance"
    [ ("battery", battery_cases);
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_workers1_equals_sequential;
          Alcotest.test_case "deeptune workers=1" `Slow test_deeptune_workers1_equivalence;
          QCheck_alcotest.to_alcotest prop_grid_multiset_any_workers;
          QCheck_alcotest.to_alcotest prop_cache_capacity1_workers1_equals_sequential;
          QCheck_alcotest.to_alcotest prop_grid_multiset_any_capacity ] );
      ( "domains",
        [ QCheck_alcotest.to_alcotest prop_domains_equal_sequential;
          QCheck_alcotest.to_alcotest prop_domains_invisible_on_workers4;
          QCheck_alcotest.to_alcotest prop_domains_trace_identical;
          Alcotest.test_case "deeptune domains=4" `Slow test_deeptune_domains_equivalence ] );
      ( "checkpoint",
        [ Alcotest.test_case "old version rejected (typed)" `Quick
            test_old_version_rejected_typed;
          Alcotest.test_case "resume mid-batch with in-flight tasks" `Quick
            test_resume_mid_batch_with_inflight;
          QCheck_alcotest.to_alcotest prop_kill_and_resume_workers4 ] );
      ("scenario battery", scenario_battery_cases);
      ( "scenario invariants",
        [ Alcotest.test_case "archive invariant across worker counts" `Quick
            test_scenario_archive_worker_invariance;
          Alcotest.test_case "workers=1 equivalence under trace replay" `Quick
            test_scenario_workers1_equals_sequential;
          QCheck_alcotest.to_alcotest prop_degenerate_weights_single_objective;
          Alcotest.test_case "deeptune degenerate weights" `Slow
            test_deeptune_degenerate_weights ] );
      ( "exhaustion",
        [ Alcotest.test_case "sequential grid exhaustion" `Quick
            test_grid_exhaustion_sequential;
          Alcotest.test_case "batched partial final batch" `Quick
            test_grid_exhaustion_batched_partial ] );
      ( "speedup",
        [ Alcotest.test_case "makespan decreases with workers" `Quick
            test_makespan_decreases_with_workers ] ) ]
