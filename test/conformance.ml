(* Shared cross-algorithm conformance harness.

   Every search algorithm — random, grid, Bayesian, DeepTune and the
   Unicorn causal baseline — is driven through the same battery of engine
   invariants, at one worker and at several.  The harness lives in its
   own module so the conformance suite, the driver goldens and the resume
   tests all exercise identical targets and algorithm constructions. *)

open Wayfinder_platform
module S = Wayfinder_simos
module D = Wayfinder_deeptune
module Pc = Wayfinder_causal.Pc
module Mat = Wayfinder_tensor.Mat
module Stat = Wayfinder_tensor.Stat
module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Rng = Wayfinder_tensor.Rng
module Domain_pool = Wayfinder_tensor.Domain_pool
module Obs = Wayfinder_obs

(* ------------------------------------------------------------------ *)
(* Target                                                              *)
(* ------------------------------------------------------------------ *)

(* 4 × 2 × 3 = 24 grid points at the driver's default 4 int steps: big
   enough that a 12-iteration budget never exhausts the grid, small enough
   that every algorithm finds signal quickly. *)
let space () =
  Space.create
    [ Param.int_param "x" ~lo:0 ~hi:7 ~default:3;
      Param.bool_param "flag" false;
      Param.categorical_param "mode" [| "a"; "b"; "c" |] ~default:0 ]

(* Deterministic in the configuration; durations vary with [x] so
   multi-worker completion interleavings are non-trivial, and x = 7
   crashes so the failure paths are exercised. *)
let target () =
  Target.make ~name:"conformance" ~space:(space ()) ~metric:Metric.throughput
    (fun ~trial config ->
      ignore trial;
      match config with
      | [| Param.Vint x; Param.Vbool flag; Param.Vcat mode |] ->
        if x = 7 then
          { Target.value = Error Failure.Runtime_crash;
            build_s = 10.;
            boot_s = 1.;
            run_s = 2.; objectives = [||] }
        else
          let v =
            100.
            -. float_of_int ((x - 5) * (x - 5))
            +. (if flag then 4. else 0.)
            +. float_of_int mode
          in
          { Target.value = Ok v;
            build_s = 10.;
            boot_s = 1.;
            run_s = 2. +. (0.5 *. float_of_int x); objectives = [||] }
      | _ -> { Target.value = Error (Failure.Other "bad arity"); build_s = 0.; boot_s = 0.; run_s = 0.; objectives = [||] })

let with_fault_rate ~fault_rate ~seed t =
  if fault_rate > 0. then
    Target.with_faults
      ~plan:(S.Faults.create ~rates:(S.Faults.rates_of_total fault_rate) ~seed ())
      t
  else t

(* ------------------------------------------------------------------ *)
(* The Unicorn adapter                                                 *)
(* ------------------------------------------------------------------ *)

(* Unicorn [38] is a causal-inference optimizer: it keeps an observation
   matrix (one column per option plus the performance target), re-runs
   PC-skeleton discovery as data arrives, and exploits the variables found
   causally adjacent to performance.  This adapter exposes that loop
   through the platform's ask/tell API: propose either mutates the best
   known configuration on an influential variable or samples fresh;
   observe appends a row and periodically refits the causal graph. *)
let unicorn_algorithm ~space () =
  let n_params = Space.size space in
  let rows = ref [] and n = ref 0 in
  let best = ref None in
  let influential = ref [] in
  let encode_value = function
    | Param.Vbool b -> if b then 1. else 0.
    | Param.Vtristate t -> float_of_int t /. 2.
    | Param.Vint x -> float_of_int x
    | Param.Vcat i -> float_of_int i
  in
  let propose ctx =
    let rng = ctx.Search_algorithm.rng in
    match (!best, !influential) with
    | Some (_, cfg), (var, _) :: _ when Rng.bool rng ->
      let c = Array.copy cfg in
      let p = (Space.params ctx.Search_algorithm.space).(var) in
      c.(var) <- Param.perturb p rng c.(var);
      c
    | _ -> Random_search.sampler ctx.Search_algorithm.space rng
  in
  let observe ctx (entry : History.entry) =
    let score =
      match entry.History.value with
      | Some v -> Metric.score ctx.Search_algorithm.metric v
      | None -> -1.
    in
    let row =
      Array.append (Array.map encode_value entry.History.config) [| score |]
    in
    rows := row :: !rows;
    incr n;
    (match (entry.History.value, !best) with
    | Some _, None -> best := Some (score, entry.History.config)
    | Some _, Some (bs, _) when score > bs -> best := Some (score, entry.History.config)
    | _ -> ());
    if !n >= 4 && !n mod 5 = 0 then begin
      (* Unicorn's refit: the PC skeleton over every row so far, at its
         defaults, then the performance column's neighbours ranked by
         absolute correlation. *)
      let data = Mat.of_rows (Array.of_list (List.rev !rows)) in
      let target_col = Mat.col data n_params in
      influential :=
        Pc.neighbors (Pc.skeleton data) n_params
        |> List.map (fun v -> (v, abs_float (Stat.pearson (Mat.col data v) target_col)))
        |> List.sort (fun (_, a) (_, b) -> compare b a)
        |> List.filter (fun (v, _) -> v < n_params)
    end
  in
  Search_algorithm.make ~name:"unicorn" ~propose ~observe ()

(* ------------------------------------------------------------------ *)
(* Algorithm registry                                                  *)
(* ------------------------------------------------------------------ *)

let names = [ "random"; "grid"; "bayes"; "deeptune"; "unicorn" ]

(* Small DeepTune: the conformance budgets are ~12 iterations, so a 96
   candidate pool and 10 warm-up draws would never leave warm-up. *)
let deeptune_options =
  { D.Deeptune.default_options with D.Deeptune.warmup = 5; pool_size = 16 }

let algorithm name ~seed space =
  match name with
  | "random" -> Random_search.create ()
  | "grid" -> Grid_search.create ()
  | "bayes" -> Bayes_search.create ~n_init:4 ~pool:32 ~seed ()
  | "deeptune" ->
    D.Deeptune.algorithm (D.Deeptune.create ~options:deeptune_options ~seed space)
  | "unicorn" -> unicorn_algorithm ~space ()
  | other -> invalid_arg ("conformance: unknown algorithm " ^ other)

(* Wrap an algorithm so every [observe] call is counted per entry index —
   the observe-exactly-once invariant. *)
let with_observe_counter algo =
  let counts = Hashtbl.create 64 in
  let observe ctx (entry : History.entry) =
    let n = Option.value ~default:0 (Hashtbl.find_opt counts entry.History.index) in
    Hashtbl.replace counts entry.History.index (n + 1);
    algo.Search_algorithm.observe ctx entry
  in
  ({ algo with Search_algorithm.observe = observe }, counts)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let frozen_obs ?sink () =
  Obs.Recorder.create ~now:(fun () -> 0.) ?sinks:(Option.map (fun s -> [ s ]) sink) ()

type outcome = {
  result : Driver.result;
  observed : (int, int) Hashtbl.t;  (* entry index -> observe calls *)
}

(* A [workers]-slot run of [name] on [base] (default: the conformance
   target) under [fault_rate] transient faults.  The recorder is frozen
   so wall-clock fields are zero and outcomes compare byte-for-byte;
   [sink] receives its events.

   [domains] runs the whole thing with a domain pool of that size
   installed as the ambient default, so the numeric kernels — matmul, DTM
   training and pool scoring — parallelize.  The engine still evaluates
   every launch inline, in launch order; the unpooled runs are the
   determinism oracle the pooled ones are compared against. *)
let run ?(workers = 1) ?batch ?(seed = 7) ?(budget = Driver.Iterations 12)
    ?(fault_rate = 0.) ?resilience ?(base = target ()) ?checkpoint_path ?checkpoint_every
    ?resume_from ?on_iteration ?on_record ?image_cache ?domains ?sink name =
  let target = with_fault_rate ~fault_rate ~seed base in
  let algo, observed = with_observe_counter (algorithm name ~seed target.Target.space) in
  let with_pool f =
    match domains with
    | None -> f ()
    | Some n ->
      let pool = Domain_pool.create n in
      Fun.protect
        ~finally:(fun () -> Domain_pool.shutdown pool)
        (fun () -> Domain_pool.with_default (Some pool) f)
  in
  let result =
    with_pool (fun () ->
        Driver.run ~seed ~obs:(frozen_obs ?sink ()) ?resilience ?checkpoint_path
          ?checkpoint_every ?resume_from ?on_iteration ?on_record ~workers ?batch ?image_cache
          ~target ~algorithm:algo ~budget ())
  in
  { result; observed }

(* ------------------------------------------------------------------ *)
(* Comparison helpers                                                  *)
(* ------------------------------------------------------------------ *)

let entries r = History.entries r.Driver.history

(* A multiset fingerprint of the evaluated configurations, insensitive to
   completion order. *)
let config_multiset r =
  entries r |> Array.to_list
  |> List.map (fun (e : History.entry) -> Array.to_list e.History.config)
  |> List.sort compare

let phase_sum r =
  List.fold_left (fun acc (_, s) -> acc +. s) 0. (Driver.phase_virtual_seconds r)

(* ------------------------------------------------------------------ *)
(* Trace-replay scenario harness                                       *)
(* ------------------------------------------------------------------ *)

(* The same 24-point synthetic space, but evaluated by replaying a flash
   crowd through a per-configuration service model: x buys capacity, mode
   and x cost memory, memory inflates the unloaded latency.  That puts
   throughput against p99/memory, so the Pareto front is non-trivial. *)

let scenario_spec =
  [| Metric.make ~name:"throughput" ~unit_name:"req/s" ();
     Metric.make ~maximize:false ~name:"p99" ~unit_name:"s" ();
     Metric.make ~maximize:false ~name:"memory" ~unit_name:"MiB" () |]

let scenario_trace () =
  S.Trace.flash_crowd ~window_s:1.0 ~windows:24 ~base:400. ~peak:1200. ~at:12 ~width:4

let make_scenario ?(stride = 1) () = Scenario.create ~stride (scenario_trace ())

let objective_of_summary (s : S.Trace_replay.summary) (m : Metric.t) =
  match m.Metric.metric_name with
  | "throughput" -> s.S.Trace_replay.mean_throughput_rps
  | "p50" -> s.S.Trace_replay.p50_latency_s
  | "p95" -> s.S.Trace_replay.p95_latency_s
  | "p99" -> s.S.Trace_replay.p99_latency_s
  | "memory" -> s.S.Trace_replay.peak_memory_mb
  | other -> invalid_arg ("conformance: unmeasurable objective " ^ other)

(* Mirrors the Targets.of_sim_linux_trace contract: one objective
   degenerates to a plain scalar target under that objective's metric;
   several scalarize into a synthetic "score" metric and report the raw
   vector. *)
let trace_target ?(spec = scenario_spec)
    ?(scalarize = Scalarize.Weighted_sum [| 1.; 1.; 1. |]) scenario =
  let n = Array.length spec in
  let metric =
    if n = 1 then spec.(0) else Metric.make ~name:"score" ~unit_name:"score" ()
  in
  Target.make ~name:"conformance-trace" ~space:(space ()) ~metric ~objective_spec:spec
    (fun ~trial config ->
      ignore trial;
      match config with
      | [| Param.Vint x; Param.Vbool flag; Param.Vcat mode |] ->
        if x = 7 then
          { Target.value = Error Failure.Runtime_crash;
            build_s = 10.;
            boot_s = 1.;
            run_s = 2.;
            objectives = [||] }
        else
          let rel = 0.6 +. (0.1 *. float_of_int x) +. (if flag then 0.2 else 0.) in
          let memory_mb =
            200. +. (60. *. float_of_int mode) +. (25. *. float_of_int x)
          in
          let service =
            { S.Trace_replay.capacity_rps = 1000. *. rel;
              base_latency_s = 0.001 *. (1. +. (memory_mb /. 400.));
              memory_mb }
          in
          let slice = Scenario.slice scenario in
          let summary = S.Trace_replay.replay slice service in
          let vec = Array.map (objective_of_summary summary) spec in
          let value = if n = 1 then vec.(0) else Scalarize.apply scalarize ~spec vec in
          { Target.value = Ok value;
            build_s = 10.;
            boot_s = 1.;
            run_s = S.Trace.duration_s slice;
            objectives = vec }
      | _ ->
        { Target.value = Error (Failure.Other "bad arity");
          build_s = 0.;
          boot_s = 0.;
          run_s = 0.;
          objectives = [||] })

(* "deeptune-multi" joins the registry for scenario runs only: DeepTune
   with one regression pair per objective needs the objective spec. *)
let scenario_names = names @ [ "deeptune-multi" ]

let scenario_algorithm name ~seed ~spec space =
  if name = "deeptune-multi" then
    D.Deeptune.algorithm
      (D.Deeptune.create ~options:deeptune_options ~seed
         ~objectives:{ D.Deeptune.spec; weights = Array.make (Array.length spec) 1. }
         space)
  else algorithm name ~seed space

let run_scenario ?(workers = 1) ?batch ?(seed = 7)
    ?(budget = Driver.Iterations 12) ?(fault_rate = 0.) ?resilience ?(stride = 1) ?spec
    ?scalarize ?checkpoint_path ?checkpoint_every ?resume_from ?on_iteration ?on_record name =
  let scenario = make_scenario ~stride () in
  let target = with_fault_rate ~fault_rate ~seed (trace_target ?spec ?scalarize scenario) in
  let algo, observed =
    with_observe_counter
      (scenario_algorithm name ~seed ~spec:target.Target.objective_spec target.Target.space)
  in
  let result =
    Driver.run ~seed ~obs:(frozen_obs ()) ?resilience ?checkpoint_path ?checkpoint_every
      ?resume_from ~workers ?batch ~scenario ~target ?on_iteration ?on_record ~algorithm:algo
      ~budget ()
  in
  ({ result; observed }, Scenario.cursor scenario)

let archive_list r = Pareto.to_list r.Driver.pareto
