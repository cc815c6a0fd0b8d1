(* The shared content-addressed image cache: stage-key canonicalization,
   LRU determinism, negative caching and its composition with quarantine,
   cross-slot rebuild-skip, and kill-and-resume with a warm cache. *)

open Wayfinder_platform
module C = Conformance
module S = Wayfinder_simos
module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Rng = Wayfinder_tensor.Rng
module Obs = Wayfinder_obs

(* ------------------------------------------------------------------ *)
(* Stage-key canonicalization                                          *)
(* ------------------------------------------------------------------ *)

(* One parameter per stage, so projections are easy to reason about. *)
let staged_space () =
  Space.create
    [ Param.int_param "copt" ~stage:Param.Compile_time ~lo:0 ~hi:7 ~default:3;
      Param.bool_param "bflag" ~stage:Param.Boot_time false;
      Param.int_param "rknob" ~stage:Param.Runtime ~lo:0 ~hi:5 ~default:0 ]

let test_stage_key_ignores_runtime () =
  let space = staged_space () in
  let a = [| Param.Vint 4; Param.Vbool true; Param.Vint 0 |] in
  let b = [| Param.Vint 4; Param.Vbool true; Param.Vint 5 |] in
  let c = [| Param.Vint 5; Param.Vbool true; Param.Vint 0 |] in
  Alcotest.(check string)
    "runtime-only variation shares the key"
    (Space.stage_key space a) (Space.stage_key space b);
  Alcotest.(check bool) "compile-time variation changes the key" true
    (Space.stage_key space a <> Space.stage_key space c)

let test_project_stages () =
  let space = staged_space () in
  let config = [| Param.Vint 4; Param.Vbool true; Param.Vint 5 |] in
  Alcotest.(check bool) "compile+boot projection" true
    (Space.project_stages space ~stages:[ Param.Compile_time; Param.Boot_time ] config
    = [ ("copt", Param.Vint 4); ("bflag", Param.Vbool true) ]);
  Alcotest.(check bool) "runtime projection" true
    (Space.project_stages space ~stages:[ Param.Runtime ] config
    = [ ("rknob", Param.Vint 5) ])

(* The load-bearing property: key equality is exactly "differs only in
   runtime parameters" — the §3.1 rebuild-skip condition. *)
let prop_stage_key_iff_runtime_only =
  QCheck2.Test.make
    ~name:"stage_key equality iff configurations differ only at runtime" ~count:200
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let space = staged_space () in
      let rng = Rng.create seed in
      let sample () =
        Array.map (fun p -> Param.sample p rng) (Space.params space)
      in
      let a = sample () and b = sample () in
      Space.stage_key space a = Space.stage_key space b
      = Space.differs_only_in_stage space a b Param.Runtime)

(* The key is written from prefixes built at [Space.create]; its bytes
   are the string-building oracle's, which journals persist. *)
let prop_stage_key_matches_oracle =
  let spaces =
    [ S.Sim_linux.space (S.Sim_linux.create ());
      S.Sim_unikraft.space (S.Sim_unikraft.create ());
      S.Sim_riscv.space (S.Sim_riscv.create ()) ]
  in
  QCheck2.Test.make ~name:"stage_key bytes equal the string-building oracle's" ~count:50
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      List.for_all
        (fun space ->
          let pinned =
            let pin () =
              let p = Space.param space (Rng.int rng (Space.size space)) in
              (p.Param.name, Param.sample p rng)
            in
            Space.fix space [ pin (); pin (); pin () ]
          in
          List.for_all
            (fun (space, config) -> Space.stage_key space config = Oracle.stage_key space config)
            [ (space, Space.defaults space); (space, Space.random space rng);
              (pinned, Space.defaults pinned); (pinned, Space.random pinned rng) ])
        spaces)

let test_stage_key_edge_spaces () =
  let runtime_only =
    Space.create
      [ Param.int_param "r0" ~lo:0 ~hi:9 ~default:1; Param.bool_param "r1" true ]
  in
  Alcotest.(check string) "only runtime parameters: empty key" ""
    (Space.stage_key runtime_only [| Param.Vint 7; Param.Vbool false |]);
  let late =
    Space.create
      [ Param.int_param "r0" ~lo:(-9) ~hi:9 ~default:1;
        Param.tristate_param "k1" 2;
        Param.int_param "r2" ~lo:0 ~hi:9 ~default:1;
        Param.int_param "b3" ~stage:Param.Boot_time ~lo:(-9) ~hi:9 ~default:0 ]
  in
  let config = [| Param.Vint (-3); Param.Vtristate 1; Param.Vint 4; Param.Vint (-7) |] in
  Alcotest.(check string) "first key position past index 0: no leading comma" "1:t1,3:i-7"
    (Space.stage_key late config);
  Alcotest.(check string) "the oracle agrees" (Oracle.stage_key late config)
    (Space.stage_key late config)

(* ------------------------------------------------------------------ *)
(* LRU determinism                                                     *)
(* ------------------------------------------------------------------ *)

let built origin = { Image_cache.status = Image_cache.Built; origin }

let test_lru_eviction_order () =
  let c = Image_cache.create (Image_cache.capacity 2) in
  Alcotest.(check bool) "no eviction below capacity" true
    (Image_cache.add c "a" (built 0) = None && Image_cache.add c "b" (built 1) = None);
  (* "a" is LRU; adding "c" evicts it. *)
  (match Image_cache.add c "c" (built 0) with
  | Some ("a", e) -> Alcotest.(check int) "evicted origin" 0 e.Image_cache.origin
  | Some (k, _) -> Alcotest.failf "evicted %S, expected \"a\"" k
  | None -> Alcotest.fail "expected an eviction");
  (* find promotes "b"; the next eviction victim is "c". *)
  ignore (Image_cache.find c "b");
  (match Image_cache.add c "d" (built 0) with
  | Some ("c", _) -> ()
  | Some (k, _) -> Alcotest.failf "evicted %S, expected \"c\"" k
  | None -> Alcotest.fail "expected an eviction");
  Alcotest.(check int) "length stays at capacity" 2 (List.length (Image_cache.to_alist c));
  Alcotest.(check bool) "MRU-first listing" true
    (List.map fst (Image_cache.to_alist c) = [ "d"; "b" ])

let test_peek_does_not_promote () =
  let c = Image_cache.create (Image_cache.capacity 2) in
  ignore (Image_cache.add c "a" (built 0));
  ignore (Image_cache.add c "b" (built 0));
  (* peek leaves "a" as LRU; touch promotes it. *)
  Alcotest.(check bool) "peek finds" true (Image_cache.peek c "a" <> None);
  (match Image_cache.add c "x" (built 0) with
  | Some ("a", _) -> ()
  | _ -> Alcotest.fail "peek must not promote");
  ignore (Image_cache.add c "a" (built 0));
  (* now [x; a] with "x" LRU after touching "x"... promote "x" explicitly. *)
  Image_cache.touch c "x";
  (match Image_cache.add c "y" (built 0) with
  | Some ("a", _) -> ()
  | _ -> Alcotest.fail "touch must promote")

let test_overwrite_promotes_without_growth () =
  let c = Image_cache.create (Image_cache.capacity 2) in
  ignore (Image_cache.add c "a" (built 0));
  ignore (Image_cache.add c "b" (built 0));
  Alcotest.(check bool) "overwrite evicts nothing" true
    (Image_cache.add c "a" { Image_cache.status = Image_cache.Built; origin = 3 } = None);
  Alcotest.(check int) "no growth" 2 (List.length (Image_cache.to_alist c));
  (match Image_cache.peek c "a" with
  | Some e -> Alcotest.(check int) "entry replaced" 3 e.Image_cache.origin
  | None -> Alcotest.fail "overwritten key vanished");
  (match Image_cache.add c "z" (built 0) with
  | Some ("b", _) -> ()
  | _ -> Alcotest.fail "overwrite must promote \"a\"")

let test_alist_roundtrip () =
  let c = Image_cache.create (Image_cache.capacity 3) in
  ignore (Image_cache.add c "a" (built 0));
  ignore
    (Image_cache.add c "b"
       { Image_cache.status = Image_cache.Build_failed Failure.Build_failure; origin = 1 });
  ignore (Image_cache.add c "c" (built 2));
  ignore (Image_cache.find c "a");
  let listing = Image_cache.to_alist c in
  Alcotest.(check bool) "recency order" true (List.map fst listing = [ "a"; "c"; "b" ]);
  let c' = Image_cache.of_alist (Image_cache.capacity 3) listing in
  Alcotest.(check bool) "of_alist inverts to_alist" true
    (Image_cache.to_alist c' = listing);
  (* The restored recency order governs eviction identically. *)
  ignore (Image_cache.add c "d" (built 0));
  ignore (Image_cache.add c' "d" (built 0));
  Alcotest.(check bool) "restored cache evicts identically" true
    (Image_cache.to_alist c' = Image_cache.to_alist c)

let test_of_alist_validation () =
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "overflow rejected" true
    (raises (fun () ->
         Image_cache.of_alist (Image_cache.capacity 1) [ ("a", built 0); ("b", built 0) ]));
  Alcotest.(check bool) "duplicate keys rejected" true
    (raises (fun () ->
         Image_cache.of_alist (Image_cache.capacity 2) [ ("a", built 0); ("a", built 1) ]));
  Alcotest.(check bool) "capacity below 1 rejected" true
    (raises (fun () -> Image_cache.capacity 0))

(* ------------------------------------------------------------------ *)
(* Negative caching × quarantine                                       *)
(* ------------------------------------------------------------------ *)

let constant_algo config =
  Search_algorithm.make ~name:"constant"
    ~propose:(fun _ctx -> Array.copy config)
    ~observe:(fun _ctx _entry -> ())
    ()

(* copt = 0 deterministically fails to build; anything else succeeds. *)
let build_failing_target () =
  Target.make ~name:"buildfail" ~space:(staged_space ()) ~metric:Metric.throughput
    (fun ~trial config ->
      ignore trial;
      match config.(0) with
      | Param.Vint 0 ->
        { Target.value = Error Failure.Build_failure; build_s = 10.; boot_s = 0.; run_s = 0.; objectives = [||] }
      | _ -> { Target.value = Ok 50.; build_s = 10.; boot_s = 1.; run_s = 2.; objectives = [||] })

let counter r name = int_of_float (Obs.Metrics.counter r.Driver.metrics name)

(* Each case runs at one worker and at four.  At four, entries complete
   out of proposal order, so the checks go by [index], the proposal
   sequence number: the engine computes an outcome at launch, and the
   re-proposals launched beside the doomed build are served its cached
   failure before that build completes. *)
let test_negative_cache_serves_deterministic_build_failure ~workers () =
  let config = [| Param.Vint 0; Param.Vbool false; Param.Vint 0 |] in
  let r =
    Driver.run ~workers ~seed:1 ~resilience:Resilience.default_resilient
      ~target:(build_failing_target ()) ~algorithm:(constant_algo config)
      ~budget:(Driver.Iterations 6) ()
  in
  (* One doomed build, then five negative hits at the floor charge. *)
  Alcotest.(check int) "one build charged" 1 (counter r "driver.builds_charged");
  Alcotest.(check int) "negative hits" 5 (counter r "driver.image_cache.negative_hits");
  Alcotest.(check int) "deterministic failures never quarantine" 0
    (counter r "driver.quarantines");
  Array.iter
    (fun (e : History.entry) ->
      Alcotest.(check bool) "every entry records the cached failure" true
        (e.History.failure = Some Failure.Build_failure
        (* only the first (doomed) attempt ran the build *)
        && e.History.built = (e.History.index = 0)))
    (History.entries r.Driver.history);
  (* Phase-sum invariant holds with the negative-cache phase in play. *)
  let phase_total =
    List.fold_left (fun acc (_, s) -> acc +. s) 0. (Driver.phase_virtual_seconds r)
  in
  Alcotest.(check bool) "phase sum equals history" true
    (Float.abs (phase_total -. History.total_eval_seconds r.Driver.history) < 1e-6)

(* Transient build failures must NOT be negative-cached: they strike
   toward quarantine instead, and quarantine then takes precedence over
   the cache pre-check. *)
let test_transient_build_failures_quarantine_not_negative_cache ~workers () =
  let config = [| Param.Vint 1; Param.Vbool false; Param.Vint 0 |] in
  let target =
    Target.make ~name:"flaky" ~space:(staged_space ()) ~metric:Metric.throughput
      (fun ~trial config ->
        ignore trial;
        ignore config;
        { Target.value = Error Failure.Flaky_build; build_s = 10.; boot_s = 0.; run_s = 0.; objectives = [||] })
  in
  let resilience =
    { Resilience.none with Resilience.retries = 1; quarantine_after = 2 }
  in
  let r =
    Driver.run ~workers ~seed:1 ~resilience ~target ~algorithm:(constant_algo config)
      ~budget:(Driver.Iterations 6) ()
  in
  Alcotest.(check int) "no negative hits for transient failures" 0
    (counter r "driver.image_cache.negative_hits");
  Alcotest.(check int) "quarantined after two exhausted episodes" 1
    (counter r "driver.quarantines");
  let last =
    Array.find_opt
      (fun (e : History.entry) -> e.History.index = 5)
      (History.entries r.Driver.history)
  in
  Alcotest.(check bool) "later proposals are served the quarantine" true
    (Option.map (fun (e : History.entry) -> e.History.failure) last
    = Some (Some Failure.Quarantined))

(* ------------------------------------------------------------------ *)
(* Cross-slot rebuild-skip                                             *)
(* ------------------------------------------------------------------ *)

let stage_keys_evaluated space r =
  History.entries r.Driver.history |> Array.to_list
  |> List.map (fun (e : History.entry) -> Space.stage_key space e.History.config)
  |> List.sort_uniq compare

let test_cross_slot_hits () =
  (* 2 compile projections, many runtime variants: most proposals share an
     image some other slot already built. *)
  let space =
    Space.create
      [ Param.bool_param "copt" ~stage:Param.Compile_time false;
        Param.int_param "rknob" ~stage:Param.Runtime ~lo:0 ~hi:1000 ~default:0 ]
  in
  let target =
    Target.make ~name:"twokeys" ~space ~metric:Metric.throughput (fun ~trial config ->
        ignore trial;
        match config with
        | [| Param.Vbool b; Param.Vint r |] ->
          { Target.value = Ok ((if b then 10. else 0.) +. float_of_int (r mod 7));
            build_s = 50.;
            boot_s = 1.;
            run_s = 2.; objectives = [||] }
        | _ -> { Target.value = Error (Failure.Other "arity"); build_s = 0.; boot_s = 0.; run_s = 0.; objectives = [||] })
  in
  let r =
    Driver.run ~seed:5 ~workers:4 ~image_cache:(Image_cache.capacity 4) ~target
      ~algorithm:(Random_search.create ()) ~budget:(Driver.Iterations 24) ()
  in
  let distinct = List.length (stage_keys_evaluated space r) in
  (* Capacity exceeds the key population, so each distinct image is built
     exactly once — every other evaluation is a shared-cache hit. *)
  Alcotest.(check int) "builds = distinct images" distinct
    (counter r "driver.builds_charged");
  Alcotest.(check int) "hits account for the rest" (24 - distinct)
    (counter r "driver.image_cache.hits");
  Alcotest.(check bool) "some hits are cross-slot" true
    (counter r "driver.image_cache.cross_slot_hits" > 0)

(* ------------------------------------------------------------------ *)
(* Checkpoint: warm-cache kill-and-resume; capacity pinning            *)
(* ------------------------------------------------------------------ *)

let prop_kill_and_resume_with_warm_cache =
  QCheck2.Test.make
    ~name:"workers=4 kill-and-resume with a warm shared cache reproduces the run" ~count:6
    QCheck2.Gen.(pair (int_range 0 300) (int_range 6 20))
    (fun (seed, interrupt_at) ->
      let budget = Driver.Iterations 24 in
      let workers = 4 in
      let image_cache = Image_cache.capacity 8 in
      let full = C.run ~workers ~seed ~budget ~image_cache "random" in
      let path = Filename.temp_file "wayfinder_cache" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let completions = ref 0 in
          (try
             ignore
               (C.run ~workers ~seed ~budget ~image_cache ~checkpoint_path:path
                  ~checkpoint_every:5
                  ~on_iteration:(fun _ ->
                    incr completions;
                    if !completions = interrupt_at then raise Exit)
                  "random")
           with Exit -> ());
          match Checkpoint.load ~path with
          | Error _ -> false
          | Ok ck ->
            let resumed =
              C.run ~workers ~seed ~budget ~image_cache ~resume_from:ck "random"
            in
            (* The checkpoint must persist a populated cache at the right
               capacity, and the resumed run must be byte-for-byte the
               uninterrupted one. *)
            ck.Checkpoint.cache_capacity = 8
            && ck.Checkpoint.cache <> []
            && History.to_csv full.C.result.Driver.history
               = History.to_csv resumed.C.result.Driver.history))

let test_resume_requires_same_capacity () =
  let path = Filename.temp_file "wayfinder_cache" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore
        (C.run ~workers:2 ~seed:3 ~budget:(Driver.Iterations 8)
           ~image_cache:(Image_cache.capacity 4) ~checkpoint_path:path "random");
      match Checkpoint.load ~path with
      | Error e -> Alcotest.failf "checkpoint load: %s" (Checkpoint.error_to_string e)
      | Ok ck ->
        (match
           C.run ~workers:2 ~seed:3 ~budget:(Driver.Iterations 16)
             ~image_cache:(Image_cache.capacity 2) ~resume_from:ck "random"
         with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "capacity mismatch accepted");
        (* Same capacity resumes fine and continues past the checkpoint. *)
        let resumed =
          C.run ~workers:2 ~seed:3 ~budget:(Driver.Iterations 16)
            ~image_cache:(Image_cache.capacity 4) ~resume_from:ck "random"
        in
        Alcotest.(check int) "resumed to the full budget" 16
          resumed.C.result.Driver.iterations)

let () =
  Alcotest.run "image_cache"
    [ ( "stage-key",
        [ Alcotest.test_case "runtime params excluded" `Quick test_stage_key_ignores_runtime;
          Alcotest.test_case "project_stages" `Quick test_project_stages;
          QCheck_alcotest.to_alcotest prop_stage_key_iff_runtime_only;
          QCheck_alcotest.to_alcotest prop_stage_key_matches_oracle;
          Alcotest.test_case "edge spaces" `Quick test_stage_key_edge_spaces ] );
      ( "lru",
        [ Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "peek does not promote" `Quick test_peek_does_not_promote;
          Alcotest.test_case "overwrite promotes without growth" `Quick
            test_overwrite_promotes_without_growth;
          Alcotest.test_case "to_alist/of_alist round-trip" `Quick test_alist_roundtrip;
          Alcotest.test_case "of_alist validation" `Quick test_of_alist_validation ] );
      ( "negative-cache",
        [ Alcotest.test_case "deterministic build failures served from cache" `Quick
            (test_negative_cache_serves_deterministic_build_failure ~workers:1);
          Alcotest.test_case "transient build failures quarantine instead" `Quick
            (test_transient_build_failures_quarantine_not_negative_cache ~workers:1);
          Alcotest.test_case "engine: deterministic build failures served from cache" `Quick
            (test_negative_cache_serves_deterministic_build_failure ~workers:4);
          Alcotest.test_case "engine: transient build failures quarantine instead" `Quick
            (test_transient_build_failures_quarantine_not_negative_cache ~workers:4) ] );
      ( "cross-slot",
        [ Alcotest.test_case "any slot's image serves every slot" `Quick test_cross_slot_hits ] );
      ( "checkpoint",
        [ QCheck_alcotest.to_alcotest prop_kill_and_resume_with_warm_cache;
          Alcotest.test_case "resume requires the checkpointed capacity" `Quick
            test_resume_requires_same_capacity ] ) ]
