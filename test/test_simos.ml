open Wayfinder_simos
module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Probe = Wayfinder_configspace.Probe
module Rng = Wayfinder_tensor.Rng

let sim = Sim_linux.create ()
let space = Sim_linux.space sim

let favored rng =
  Space.sample_biased space rng ~vary_probability:(Space.favor_stage Param.Runtime)

(* ------------------------------------------------------------------ *)
(* Vclock / Hardware / App                                             *)
(* ------------------------------------------------------------------ *)

let test_vclock () =
  let c = Vclock.create () in
  Alcotest.(check (float 1e-12)) "starts at 0" 0. (Vclock.now c);
  Vclock.advance c 90.;
  Alcotest.(check (float 1e-12)) "advances" 90. (Vclock.now c);
  Alcotest.(check (float 1e-12)) "minutes" 1.5 (Vclock.minutes c);
  Alcotest.(check bool) "negative rejected" true
    (try
       Vclock.advance c (-1.);
       false
     with Invalid_argument _ -> true);
  Vclock.reset c;
  Alcotest.(check (float 1e-12)) "reset" 0. (Vclock.now c)

let test_vclock_observers () =
  let c = Vclock.create () in
  let seen = ref [] in
  Vclock.on_advance c (fun dt -> seen := dt :: !seen);
  Vclock.on_advance c (fun dt -> seen := (dt *. 10.) :: !seen);
  Vclock.advance c 3.;
  Vclock.advance c 0.;
  Alcotest.(check (list (float 1e-12))) "each advance notifies every observer"
    [ 0.; 0.; 30.; 3. ] !seen;
  (* Observers survive a reset (the driver reuses the clock across runs). *)
  seen := [];
  Vclock.reset c;
  Vclock.advance c 2.;
  Alcotest.(check (list (float 1e-12))) "still attached after reset" [ 20.; 2. ] !seen

let test_vclock_scheduler () =
  let c = Vclock.create () in
  let log = ref [] in
  (* Same completion time: FIFO tie-break by schedule order. *)
  ignore (Vclock.schedule c ~at:5. (fun () -> log := "a" :: !log));
  ignore (Vclock.schedule c ~at:5. (fun () -> log := "b" :: !log));
  ignore (Vclock.schedule c ~at:2. (fun () -> log := "c" :: !log));
  Alcotest.(check int) "three pending" 3 (Vclock.pending c);
  Alcotest.(check (option (float 1e-12))) "peek earliest" (Some 2.) (Vclock.peek_next c);
  Alcotest.(check bool) "ran" true (Vclock.run_next c);
  Alcotest.(check (float 1e-12)) "advanced to the event" 2. (Vclock.now c);
  Alcotest.(check bool) "ran" true (Vclock.run_next c);
  Alcotest.(check bool) "ran" true (Vclock.run_next c);
  Alcotest.(check bool) "empty heap" false (Vclock.run_next c);
  Alcotest.(check (list string)) "min-time order, FIFO ties" [ "b"; "a"; "c" ] !log;
  (* schedule_chain accumulates deltas from now and replays them through
     the observers on completion (the engine's charge-metrics path). *)
  let deltas = ref [] in
  Vclock.on_advance c (fun dt -> if dt > 0. then deltas := dt :: !deltas);
  let at = Vclock.schedule_chain c ~deltas:[ 3.; 1.; 0.5 ] (fun () -> ()) in
  Alcotest.(check (float 1e-12)) "chain completion time" (5. +. 3. +. 1. +. 0.5) at;
  Alcotest.(check bool) "ran chain" true (Vclock.run_next c);
  Alcotest.(check (list (float 1e-12))) "per-delta observer stream" [ 0.5; 1.; 3. ] !deltas;
  (* Validation. *)
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "past schedule rejected" true
    (raises (fun () -> ignore (Vclock.schedule c ~at:1. (fun () -> ()))));
  Alcotest.(check bool) "negative chain delta rejected" true
    (raises (fun () -> ignore (Vclock.schedule_chain c ~deltas:[ 1.; -2. ] (fun () -> ()))));
  Alcotest.(check bool) "advance_to backwards rejected" true
    (raises (fun () -> Vclock.advance_to c 0.));
  (* Reset clears pending events. *)
  ignore (Vclock.schedule c ~at:100. (fun () -> ()));
  Vclock.reset c;
  Alcotest.(check int) "reset clears the heap" 0 (Vclock.pending c)

let test_app_metadata () =
  Alcotest.(check int) "four apps" 4 (List.length App.all);
  Alcotest.(check bool) "sqlite minimizes" false (App.metric App.Sqlite).App.maximize;
  Alcotest.(check bool) "nginx maximizes" true (App.metric App.Nginx).App.maximize;
  Alcotest.(check (float 1e-9)) "nginx default" 15731. (App.default_performance App.Nginx);
  Alcotest.(check bool) "roundtrip names" true
    (List.for_all (fun a -> App.of_name (App.name a) = Some a) App.all);
  Alcotest.(check (float 1e-9)) "sqlite score negated" (-284.) (App.score App.Sqlite 284.);
  Alcotest.(check int) "redis single core" 1 (App.cores_used App.Redis)

let test_hardware () =
  Alcotest.(check int) "one-node cores" 24 Hardware.xeon_e5_2697v2_one_node.Hardware.cores;
  Alcotest.(check bool) "riscv emulated" true Hardware.riscv_qemu.Hardware.emulated

(* ------------------------------------------------------------------ *)
(* Shapes                                                              *)
(* ------------------------------------------------------------------ *)

let test_shapes_saturating () =
  let f v = Shapes.saturating ~v ~reference:128 ~cap_ratio:64. ~gain:0.05 in
  Alcotest.(check (float 1e-9)) "zero at reference" 0. (f 128);
  Alcotest.(check (float 1e-9)) "gain at cap" 0.05 (f (128 * 64));
  Alcotest.(check (float 1e-9)) "clamped beyond cap" 0.05 (f (128 * 640));
  Alcotest.(check bool) "negative below reference" true (f 16 < 0.)

let test_shapes_peaked () =
  let f v = Shapes.peaked ~v ~optimum:1000 ~width:0.5 ~gain:0.04 in
  Alcotest.(check (float 1e-9)) "gain at optimum" 0.04 (f 1000);
  Alcotest.(check bool) "decays away" true (f 100 < f 500 && f 500 < f 1000);
  Alcotest.(check bool) "symmetric in log space" true (abs_float (f 100 -. f 10000) < 1e-9)

let test_shapes_penalties () =
  Alcotest.(check (float 1e-9)) "below neutral free" 0.
    (Shapes.level_penalty ~level:2 ~neutral:4 ~per_level:0.015);
  Alcotest.(check (float 1e-9)) "above neutral costs" (-0.06)
    (Shapes.level_penalty ~level:8 ~neutral:4 ~per_level:0.015);
  Alcotest.(check (float 1e-9)) "step on" (-0.05) (Shapes.step_penalty true 0.05);
  Alcotest.(check (float 1e-9)) "step off" 0. (Shapes.step_penalty false 0.05)

let test_shapes_hash_stable () =
  Alcotest.(check int) "deterministic" (Shapes.hash_string "net.core.somaxconn")
    (Shapes.hash_string "net.core.somaxconn");
  Alcotest.(check bool) "different inputs differ" true
    (Shapes.hash_string "a" <> Shapes.hash_string "b");
  Alcotest.(check bool) "non-negative" true (Shapes.hash_string "whatever" >= 0)

let prop_hash_combine_matches_string_formula =
  let edge = [ 0; 1; -1; min_int; max_int ] in
  QCheck2.Test.make ~name:"hash_combine equals the hash of the joined decimal text" ~count:500
    QCheck2.Gen.(
      pair
        (oneof [ int; oneofl edge; int_range (-1000) 1000 ])
        (oneof [ int; oneofl edge; int_range (-1000) 1000 ]))
    (fun (a, b) ->
      let same a b = Shapes.hash_combine a b = Oracle.hash_combine a b in
      same a b && List.for_all (fun e -> same a e && same e b) edge)

(* ------------------------------------------------------------------ *)
(* SimLinux                                                            *)
(* ------------------------------------------------------------------ *)

let test_linux_space_inventory () =
  Alcotest.(check bool) "somaxconn present" true (Space.mem space "net.core.somaxconn");
  Alcotest.(check bool) "printk present" true (Space.mem space "kernel.printk_level");
  Alcotest.(check bool) "KASAN present" true (Space.mem space "KASAN");
  Alcotest.(check bool) "mitigations present" true (Space.mem space "mitigations");
  Alcotest.(check bool) "large space" true (Space.size space > 150);
  let stages = Array.map (fun p -> p.Param.stage) (Space.params space) in
  Alcotest.(check bool) "has all three stages" true
    (Array.mem Param.Runtime stages && Array.mem Param.Boot_time stages
    && Array.mem Param.Compile_time stages)

let test_linux_default_never_crashes () =
  let d = Space.defaults space in
  for trial = 0 to 9 do
    match (Sim_linux.evaluate sim ~app:App.Nginx ~trial d).Sim_linux.result with
    | Ok _ -> ()
    | Error stage ->
      Alcotest.failf "default crashed: %s" (Sim_linux.failure_stage_to_string stage)
  done

let test_linux_determinism () =
  let rng = Rng.create 1 in
  let c = favored rng in
  let o1 = Sim_linux.evaluate sim ~app:App.Nginx ~trial:5 c in
  let o2 = Sim_linux.evaluate sim ~app:App.Nginx ~trial:5 c in
  Alcotest.(check bool) "same trial same outcome" true (o1.Sim_linux.result = o2.Sim_linux.result)

let test_linux_noise_varies_with_trial () =
  let d = Space.defaults space in
  let v trial =
    match (Sim_linux.evaluate sim ~app:App.Nginx ~trial d).Sim_linux.result with
    | Ok v -> v
    | Error _ -> Alcotest.fail "default crashed"
  in
  Alcotest.(check bool) "trials differ" true (v 0 <> v 1);
  Alcotest.(check bool) "but stay close" true (abs_float (v 0 -. v 1) /. v 0 < 0.1)

let test_linux_crash_consistent_across_trials () =
  (* A configuration that crashes must crash for every trial. *)
  let rng = Rng.create 2 in
  let found = ref false in
  let attempts = ref 0 in
  while (not !found) && !attempts < 200 do
    incr attempts;
    let c = favored rng in
    match (Sim_linux.evaluate sim ~app:App.Nginx ~trial:0 c).Sim_linux.result with
    | Error _ ->
      found := true;
      for trial = 1 to 5 do
        match (Sim_linux.evaluate sim ~app:App.Nginx ~trial c).Sim_linux.result with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "crash not reproducible across trials"
      done
    | Ok _ -> ()
  done;
  Alcotest.(check bool) "found a crashing config" true !found

let test_linux_crash_rate_calibration () =
  (* §2.2: about one third of randomly generated configurations crash. *)
  let rng = Rng.create 3 in
  let crashes = ref 0 in
  let n = 400 in
  for _ = 1 to n do
    match (Sim_linux.evaluate sim ~app:App.Nginx (favored rng)).Sim_linux.result with
    | Error _ -> incr crashes
    | Ok _ -> ()
  done;
  let rate = float_of_int !crashes /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "crash rate %.2f in [0.2, 0.45]" rate) true
    (rate >= 0.2 && rate <= 0.45)

let test_linux_random_spread_matches_fig2 () =
  (* Most random configurations are worse than default; the best is
     noticeably (~10-20 %) better. *)
  let rng = Rng.create 4 in
  let dflt = Sim_linux.default_value sim ~app:App.Nginx () in
  let values = ref [] in
  while List.length !values < 300 do
    match (Sim_linux.evaluate sim ~app:App.Nginx (favored rng)).Sim_linux.result with
    | Ok v -> values := v :: !values
    | Error _ -> ()
  done;
  let below = List.length (List.filter (fun v -> v < dflt) !values) in
  let best = List.fold_left max neg_infinity !values in
  let frac_below = float_of_int below /. 300. in
  Alcotest.(check bool) (Printf.sprintf "fraction below default %.2f" frac_below) true
    (frac_below > 0.5 && frac_below < 0.8);
  Alcotest.(check bool) (Printf.sprintf "best/default %.3f" (best /. dflt)) true
    (best /. dflt > 1.08 && best /. dflt < 1.3)

let test_linux_documented_params_help () =
  (* Setting the documented positive knobs to good values must beat the
     default; setting the documented negative knobs must hurt. *)
  let d = Space.defaults space in
  let noise_free config = App.default_performance App.Nginx, config in
  ignore noise_free;
  let value config =
    match (Sim_linux.evaluate sim ~app:App.Nginx ~trial:0 config).Sim_linux.result with
    | Ok v -> v
    | Error stage -> Alcotest.failf "crashed: %s" (Sim_linux.failure_stage_to_string stage)
  in
  let tuned =
    Space.set space d "net.core.somaxconn" (Param.Vint 8192)
    |> fun c ->
    Space.set space c "net.ipv4.tcp_max_syn_backlog" (Param.Vint 16384)
    |> fun c ->
    Space.set space c "net.core.rmem_default" (Param.Vint 1048576)
    |> fun c -> Space.set space c "vm.stat_interval" (Param.Vint 60)
  in
  Alcotest.(check bool) "documented tuning beats default" true (value tuned > value d *. 1.05);
  let hurt =
    Space.set space d "kernel.printk_level" (Param.Vint 8)
    |> fun c ->
    Space.set space c "kernel.printk_delay" (Param.Vint 1000)
    |> fun c -> Space.set space c "vm.block_dump" (Param.Vbool true)
  in
  Alcotest.(check bool) "documented degradations hurt" true (value hurt < value d *. 0.92)

let test_linux_cross_stage_interaction () =
  (* BBR without its compile option is a (probabilistic but near-certain
     over trials) runtime crash; with the option it is a gain. *)
  let d = Space.defaults space in
  let with_bbr = Space.set space d "net.ipv4.tcp_congestion_control" (Param.Vcat 1) in
  let without_compile = Space.set space with_bbr "TCP_CONG_BBR" (Param.Vtristate 0) in
  (match (Sim_linux.evaluate sim ~app:App.Nginx with_bbr).Sim_linux.result with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "bbr with compile support should work");
  (* The crash is drawn once per configuration; check it is at least
     frequently fatal across model seeds by checking this one. *)
  match (Sim_linux.evaluate sim ~app:App.Nginx without_compile).Sim_linux.result with
  | Error Sim_linux.Runtime_crash | Ok _ -> ()
  | Error stage ->
    Alcotest.failf "unexpected stage %s" (Sim_linux.failure_stage_to_string stage)

let test_linux_sqlite_default_near_optimal () =
  (* §4.1: the best configuration for SQLite does not improve on the
     default. *)
  let rng = Rng.create 5 in
  let dflt = Sim_linux.default_value sim ~app:App.Sqlite () in
  let best = ref infinity in
  let tried = ref 0 in
  while !tried < 200 do
    match (Sim_linux.evaluate sim ~app:App.Sqlite (favored rng)).Sim_linux.result with
    | Ok v ->
      incr tried;
      if v < !best then best := v
    | Error _ -> incr tried
  done;
  (* Latency is minimised; random search should not beat default by more
     than noise. *)
  Alcotest.(check bool) "no config much better than default" true (!best > dflt *. 0.97)

let test_linux_npb_insensitive () =
  (* §4.1: NPB barely reacts to OS configuration. *)
  let rng = Rng.create 6 in
  let dflt = Sim_linux.default_value sim ~app:App.Npb () in
  let values = ref [] in
  while List.length !values < 100 do
    match (Sim_linux.evaluate sim ~app:App.Npb (favored rng)).Sim_linux.result with
    | Ok v -> values := v :: !values
    | Error _ -> ()
  done;
  let best = List.fold_left max neg_infinity !values in
  Alcotest.(check bool) "NPB spread small" true (best /. dflt < 1.06)

let test_linux_durations () =
  let d = Space.defaults space in
  let o = Sim_linux.evaluate sim ~app:App.Nginx d in
  let dur = o.Sim_linux.durations in
  Alcotest.(check bool) "build minutes" true
    (dur.Sim_linux.build_s > 60. && dur.Sim_linux.build_s < 600.);
  Alcotest.(check bool) "boot seconds" true
    (dur.Sim_linux.boot_s > 5. && dur.Sim_linux.boot_s < 20.);
  (* §4.1 Figure 8: evaluating (boot + run) takes 60-80 s. *)
  let eval_time = dur.Sim_linux.boot_s +. dur.Sim_linux.run_s in
  Alcotest.(check bool) (Printf.sprintf "eval time %.0f in [50, 90]" eval_time) true
    (eval_time >= 50. && eval_time <= 90.)

let test_linux_memory_footprint () =
  let d = Space.defaults space in
  let base = Sim_linux.memory_footprint_mb sim d in
  Alcotest.(check bool) "plausible size" true (base > 150. && base < 400.);
  let with_debug = Space.set space d "KASAN" (Param.Vbool true) in
  Alcotest.(check bool) "debug increases memory" true
    (Sim_linux.memory_footprint_mb sim with_debug > base +. 10.)

let test_linux_sysfs_probe () =
  (* The §3.4 heuristic applied to the simulated /proc/sys discovers
     runtime parameters with sensible types. *)
  let iface = Sim_linux.sysfs sim in
  let report = Probe.probe iface in
  Alcotest.(check bool) "many parameters found" true (List.length report.Probe.probed > 50);
  let somaxconn =
    List.find (fun p -> p.Param.name = "net.core.somaxconn") report.Probe.probed
  in
  (match somaxconn.Param.kind with
   | Param.Kint { lo; hi; _ } ->
     Alcotest.(check bool) "range brackets default" true (lo <= 128 && hi >= 1280)
   | _ -> Alcotest.fail "somaxconn should probe as int");
  let block_dump = List.find (fun p -> p.Param.name = "vm.block_dump") report.Probe.probed in
  Alcotest.(check bool) "0/1 default probes as bool" true (block_dump.Param.kind = Param.Kbool)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let test_workload_defaults () =
  List.iter
    (fun app ->
      let w = Workload.default_for app in
      Alcotest.(check bool) "default workload drives its app" true (Workload.matches_app w app))
    App.all;
  Alcotest.(check bool) "wrk does not drive redis" false
    (Workload.matches_app (Workload.default_for App.Nginx) App.Redis)

let test_workload_knobs () =
  let light = Workload.Wrk { connections = 4; duration_s = 60 } in
  let heavy = Workload.Wrk { connections = 400; duration_s = 60 } in
  Alcotest.(check bool) "more connections, more pressure" true
    (Workload.concurrency heavy > Workload.concurrency light);
  Alcotest.(check bool) "concurrency bounded" true (Workload.concurrency heavy <= 1.);
  let read_mix = Workload.Redis_benchmark { clients = 50; get_fraction = 1.0; pipeline = 1 } in
  let write_mix = Workload.Redis_benchmark { clients = 50; get_fraction = 0.0; pipeline = 1 } in
  Alcotest.(check (float 1e-9)) "pure GET has no writes" 0. (Workload.write_intensity read_mix);
  Alcotest.(check (float 1e-9)) "pure SET is all writes" 1. (Workload.write_intensity write_mix)

let test_workload_shifts_optimum () =
  (* §3.5: the backlog-tuned configuration only helps under connection
     pressure. *)
  let d = Space.defaults space in
  let tuned =
    Space.set space d "net.core.somaxconn" (Param.Vint 8192)
    |> fun c -> Space.set space c "net.ipv4.tcp_max_syn_backlog" (Param.Vint 16384)
  in
  let value workload config =
    match (Sim_linux.evaluate sim ~app:App.Nginx ~workload ~trial:0 config).Sim_linux.result with
    | Ok v -> v
    | Error _ -> Alcotest.fail "crashed"
  in
  let heavy = Workload.Wrk { connections = 400; duration_s = 60 } in
  let light = Workload.Wrk { connections = 4; duration_s = 60 } in
  let gain w = value w tuned /. value w d in
  Alcotest.(check bool)
    (Printf.sprintf "backlog gain shrinks under light load (%.3f vs %.3f)" (gain heavy)
       (gain light))
    true
    (gain heavy > gain light +. 0.01)

let test_workload_mismatch_rejected () =
  let d = Space.defaults space in
  Alcotest.(check bool) "wrk against redis rejected" true
    (try
       ignore
         (Sim_linux.evaluate sim ~app:App.Redis
            ~workload:(Workload.Wrk { connections = 100; duration_s = 60 })
            d);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* SimUnikraft                                                         *)
(* ------------------------------------------------------------------ *)

let uk = Sim_unikraft.create ()
let uk_space = Sim_unikraft.space uk

let test_unikraft_space () =
  Alcotest.(check int) "33 parameters" 33 (Space.size uk_space);
  let log_card = Space.log10_cardinality uk_space in
  (* §4.4: 3.7e13 permutations. *)
  Alcotest.(check bool) (Printf.sprintf "log10 card %.1f near 13.6" log_card) true
    (log_card > 12. && log_card < 15.)

let test_unikraft_default_ok () =
  let d = Space.defaults uk_space in
  match (Sim_unikraft.evaluate uk d).Sim_unikraft.result with
  | Ok v -> Alcotest.(check bool) "positive throughput" true (v > 0.)
  | Error _ -> Alcotest.fail "default crashed"

let test_unikraft_headroom_larger_than_linux () =
  (* §4.4: improvements on Unikraft are significantly larger than on
     Linux. *)
  let rng = Rng.create 7 in
  let dflt = Sim_unikraft.default_value uk in
  let best = ref 0. in
  for _ = 1 to 400 do
    let c = Space.random uk_space rng in
    match (Sim_unikraft.evaluate uk c).Sim_unikraft.result with
    | Ok v -> if v > !best then best := v
    | Error _ -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "best/default %.2f > 1.4" (!best /. dflt)) true
    (!best /. dflt > 1.4)

let test_unikraft_fast_builds () =
  let d = Space.defaults uk_space in
  let o = Sim_unikraft.evaluate uk d in
  Alcotest.(check bool) "unikernel builds fast" true (o.Sim_unikraft.build_s < 60.);
  Alcotest.(check bool) "boots in milliseconds" true (o.Sim_unikraft.boot_s < 1.)

let test_unikraft_crash_interactions () =
  let d = Space.defaults uk_space in
  let heap_kind = (Space.param uk_space (Space.index_of uk_space "UK_HEAP_MB")).Param.kind in
  let heap_16 =
    match Param.value_of_string heap_kind "16" with
    | Some v -> v
    | None -> Alcotest.fail "16 MB heap not in domain"
  in
  let tiny_heap = Space.set uk_space d "UK_HEAP_MB" heap_16 in
  (match (Sim_unikraft.evaluate uk tiny_heap).Sim_unikraft.result with
   | Error `Runtime_crash | Ok _ -> ()
   | Error `Build_failure -> Alcotest.fail "tiny heap should not fail the build");
  let bad_link =
    Space.set uk_space (Space.set uk_space d "UK_ALLOC" (Param.Vcat 2)) "LWIP_POOLS"
      (Param.Vbool true)
  in
  match (Sim_unikraft.evaluate uk bad_link).Sim_unikraft.result with
  | Error `Build_failure | Ok _ -> ()
  | Error `Runtime_crash -> Alcotest.fail "allocator/pool conflict is a build failure"

(* ------------------------------------------------------------------ *)
(* Sim RISC-V                                                          *)
(* ------------------------------------------------------------------ *)

let rv = Sim_riscv.create ()
let rv_space = Sim_riscv.space rv

let test_riscv_default_memory () =
  let m = Sim_riscv.default_memory_mb rv in
  Alcotest.(check bool) (Printf.sprintf "default %.0f MB near 210" m) true
    (abs_float (m -. 210.) < 1.);
  let d = Space.defaults rv_space in
  match (Sim_riscv.evaluate rv d).Sim_riscv.result with
  | Ok v -> Alcotest.(check bool) "measured near default" true (abs_float (v -. m) < 1.)
  | Error _ -> Alcotest.fail "default image must boot"

let test_riscv_floor_below_wayfinder_target () =
  (* The paper's best found is 192 MB; the model's true floor must allow
     it. *)
  Alcotest.(check bool) "floor below 192" true (Sim_riscv.min_reachable_mb rv < 192.)

let test_riscv_disabling_reduces_memory () =
  let d = Space.defaults rv_space in
  let params = Space.params rv_space in
  (* Disable the first default-on option; memory must not increase. *)
  let idx = ref (-1) in
  Array.iteri
    (fun i p -> if !idx < 0 && p.Param.default = Param.Vbool true then idx := i)
    params;
  let c = Array.copy d in
  c.(!idx) <- Param.Vbool false;
  let m_of config =
    match (Sim_riscv.evaluate rv config).Sim_riscv.result with
    | Ok v -> Some v
    | Error _ -> None
  in
  match (m_of d, m_of c) with
  | Some base, Some smaller -> Alcotest.(check bool) "memory decreased" true (smaller < base)
  | Some _, None -> () (* disabled an essential option: boot failure is legitimate *)
  | None, _ -> Alcotest.fail "default must boot"

let test_riscv_aggressive_debloat_crashes () =
  (* Turning everything off must break the boot. *)
  let all_off = Array.map (fun _ -> Param.Vbool false) (Space.defaults rv_space) in
  match (Sim_riscv.evaluate rv all_off).Sim_riscv.result with
  | Error (`Boot_failure | `Build_failure) -> ()
  | Ok _ -> Alcotest.fail "empty kernel should not boot"

let test_riscv_slow_evaluations () =
  let d = Space.defaults rv_space in
  let o = Sim_riscv.evaluate rv d in
  Alcotest.(check bool) "cross-build takes minutes" true (o.Sim_riscv.build_s > 120.);
  Alcotest.(check bool) "emulated boot tens of seconds" true (o.Sim_riscv.boot_s > 20.)

(* ------------------------------------------------------------------ *)
(* Cozart                                                              *)
(* ------------------------------------------------------------------ *)

let test_cozart_debloats () =
  let cz = Cozart.create sim ~app:App.Nginx in
  let debloated = Cozart.debloated_config cz in
  let stock = Space.defaults space in
  (* The debloated image must be leaner than stock. *)
  Alcotest.(check bool) "memory reduced" true
    (Sim_linux.memory_footprint_mb sim debloated < Sim_linux.memory_footprint_mb sim stock);
  (* The reduced space no longer varies untraced compile options. *)
  let reduced = Cozart.reduced_space cz in
  Alcotest.(check bool) "smaller search space" true
    (Space.log10_cardinality reduced < Space.log10_cardinality space);
  (* Traced options include always-needed infrastructure. *)
  Alcotest.(check bool) "HZ traced" true (List.mem "HZ" (Cozart.traced_options cz))

let test_cozart_baseline_anchored () =
  let cz = Cozart.create sim ~app:App.Nginx in
  Alcotest.(check (float 1.)) "throughput anchor" 46855. (Cozart.baseline_throughput cz);
  Alcotest.(check (float 0.01)) "memory anchor" 331.77 (Cozart.baseline_memory_mb cz);
  let o = Cozart.evaluate cz (Cozart.debloated_config cz) in
  (match o.Cozart.throughput with
   | Ok v ->
     Alcotest.(check bool) (Printf.sprintf "measured %.0f near anchor" v) true
       (abs_float (v -. 46855.) /. 46855. < 0.05)
   | Error _ -> Alcotest.fail "debloated config must run");
  Alcotest.(check bool) "memory near anchor" true
    (abs_float (o.Cozart.memory_mb -. 331.77) < 5.)

let test_cozart_runtime_headroom_remains () =
  (* Wayfinder on top of Cozart: runtime tuning still improves on the
     debloated baseline (the Figure 11 premise). *)
  let cz = Cozart.create sim ~app:App.Nginx in
  let reduced = Cozart.reduced_space cz in
  let base = Cozart.debloated_config cz in
  let tuned =
    Space.set reduced base "net.core.somaxconn" (Param.Vint 8192)
    |> fun c -> Space.set reduced c "net.ipv4.tcp_max_syn_backlog" (Param.Vint 16384)
  in
  let value config =
    match (Cozart.evaluate cz config).Cozart.throughput with
    | Ok v -> v
    | Error _ -> Alcotest.fail "crashed"
  in
  Alcotest.(check bool) "runtime tuning beats cozart baseline" true
    (value tuned > value base *. 1.03)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_linux_eval_total =
  QCheck2.Test.make ~name:"evaluation is total on valid configurations" ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun s ->
      let rng = Rng.create s in
      let c = favored rng in
      let o = Sim_linux.evaluate sim ~app:App.Redis c in
      match o.Sim_linux.result with
      | Ok v -> v > 0.
      | Error _ -> true)

let prop_riscv_memory_positive =
  QCheck2.Test.make ~name:"riscv memory in plausible band" ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun s ->
      let rng = Rng.create s in
      let c =
        Space.sample_biased rv_space rng
          ~vary_probability:(Space.favor_stage Param.Compile_time ~strong:0.1 ~weak:0.)
      in
      match (Sim_riscv.evaluate rv c).Sim_riscv.result with
      | Ok v -> v > 100. && v < 300.
      | Error _ -> true)

let () =
  Alcotest.run "simos"
    [ ( "infra",
        [ Alcotest.test_case "vclock" `Quick test_vclock;
          Alcotest.test_case "vclock observers" `Quick test_vclock_observers;
          Alcotest.test_case "vclock scheduler" `Quick test_vclock_scheduler;
          Alcotest.test_case "apps" `Quick test_app_metadata;
          Alcotest.test_case "hardware" `Quick test_hardware ] );
      ( "shapes",
        [ Alcotest.test_case "saturating" `Quick test_shapes_saturating;
          Alcotest.test_case "peaked" `Quick test_shapes_peaked;
          Alcotest.test_case "penalties" `Quick test_shapes_penalties;
          Alcotest.test_case "hash stability" `Quick test_shapes_hash_stable;
          QCheck_alcotest.to_alcotest prop_hash_combine_matches_string_formula ] );
      ( "sim_linux",
        [ Alcotest.test_case "space inventory" `Quick test_linux_space_inventory;
          Alcotest.test_case "default never crashes" `Quick test_linux_default_never_crashes;
          Alcotest.test_case "determinism" `Quick test_linux_determinism;
          Alcotest.test_case "noise varies with trial" `Quick test_linux_noise_varies_with_trial;
          Alcotest.test_case "crash consistent across trials" `Quick
            test_linux_crash_consistent_across_trials;
          Alcotest.test_case "crash rate calibration" `Slow test_linux_crash_rate_calibration;
          Alcotest.test_case "figure 2 spread" `Slow test_linux_random_spread_matches_fig2;
          Alcotest.test_case "documented parameters" `Quick test_linux_documented_params_help;
          Alcotest.test_case "cross-stage interaction" `Quick test_linux_cross_stage_interaction;
          Alcotest.test_case "sqlite default near-optimal" `Slow test_linux_sqlite_default_near_optimal;
          Alcotest.test_case "npb insensitive" `Slow test_linux_npb_insensitive;
          Alcotest.test_case "durations" `Quick test_linux_durations;
          Alcotest.test_case "memory footprint" `Quick test_linux_memory_footprint;
          Alcotest.test_case "sysfs probe" `Quick test_linux_sysfs_probe ] );
      ( "workload",
        [ Alcotest.test_case "defaults" `Quick test_workload_defaults;
          Alcotest.test_case "knobs" `Quick test_workload_knobs;
          Alcotest.test_case "shifts the optimum" `Quick test_workload_shifts_optimum;
          Alcotest.test_case "mismatch rejected" `Quick test_workload_mismatch_rejected ] );
      ( "sim_unikraft",
        [ Alcotest.test_case "space" `Quick test_unikraft_space;
          Alcotest.test_case "default ok" `Quick test_unikraft_default_ok;
          Alcotest.test_case "headroom" `Slow test_unikraft_headroom_larger_than_linux;
          Alcotest.test_case "fast builds" `Quick test_unikraft_fast_builds;
          Alcotest.test_case "crash interactions" `Quick test_unikraft_crash_interactions ] );
      ( "sim_riscv",
        [ Alcotest.test_case "default memory" `Quick test_riscv_default_memory;
          Alcotest.test_case "floor below target" `Quick test_riscv_floor_below_wayfinder_target;
          Alcotest.test_case "disabling reduces memory" `Quick test_riscv_disabling_reduces_memory;
          Alcotest.test_case "aggressive debloat crashes" `Quick test_riscv_aggressive_debloat_crashes;
          Alcotest.test_case "slow evaluations" `Quick test_riscv_slow_evaluations ] );
      ( "cozart",
        [ Alcotest.test_case "debloats" `Quick test_cozart_debloats;
          Alcotest.test_case "baseline anchored" `Quick test_cozart_baseline_anchored;
          Alcotest.test_case "runtime headroom" `Quick test_cozart_runtime_headroom_remains ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_linux_eval_total; prop_riscv_memory_positive ] ) ]
