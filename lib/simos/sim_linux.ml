module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Probe = Wayfinder_configspace.Probe
module Rng = Wayfinder_tensor.Rng

type t = {
  space : Space.t;
  hardware : Hardware.t;
  seed : int;
  (* Hidden model state, fixed at creation. *)
  crash_fraction : float array;  (* per-parameter hidden crash region size *)
  conflict_pairs : (int * int) list;  (* boolean pairs that crash together *)
  build_conflicts : (int * int) list;  (* compile pairs that fail to build *)
  filler_memory_mb : float array;  (* per-parameter enabled-memory cost *)
}

type failure_stage = Build_failure | Boot_failure | Runtime_crash

type durations = { build_s : float; boot_s : float; run_s : float }
type outcome = { result : (float, failure_stage) result; durations : durations }

(* ------------------------------------------------------------------ *)
(* Parameter inventory                                                 *)
(* ------------------------------------------------------------------ *)

let runtime = Param.Runtime
let boot = Param.Boot_time
let compile = Param.Compile_time

let named_runtime_params =
  [ Param.int_param ~stage:runtime ~log_scale:true "net.core.somaxconn" ~lo:16 ~hi:65536 ~default:128;
    Param.int_param ~stage:runtime ~log_scale:true "net.ipv4.tcp_max_syn_backlog" ~lo:64 ~hi:262144
      ~default:1024;
    Param.int_param ~stage:runtime ~log_scale:true "net.core.rmem_default" ~lo:4096 ~hi:8388608
      ~default:212992;
    Param.int_param ~stage:runtime ~log_scale:true "net.core.wmem_default" ~lo:4096 ~hi:8388608
      ~default:212992;
    Param.int_param ~stage:runtime ~log_scale:true "net.ipv4.tcp_keepalive_time" ~lo:60 ~hi:14400
      ~default:7200;
    Param.int_param ~stage:runtime ~log_scale:true "net.core.netdev_max_backlog" ~lo:64 ~hi:65536
      ~default:1000;
    Param.int_param ~stage:runtime "net.ipv4.tcp_fastopen" ~lo:0 ~hi:3 ~default:1;
    Param.int_param ~stage:runtime "net.core.busy_poll" ~lo:0 ~hi:500 ~default:0;
    Param.int_param ~stage:runtime "net.core.busy_read" ~lo:0 ~hi:500 ~default:0;
    Param.categorical_param ~stage:runtime "net.ipv4.tcp_congestion_control"
      [| "cubic"; "bbr"; "reno"; "vegas" |] ~default:0;
    Param.categorical_param ~stage:runtime "net.core.default_qdisc"
      [| "pfifo_fast"; "fq"; "fq_codel" |] ~default:0;
    Param.bool_param ~stage:runtime "net.ipv4.tcp_tw_reuse" false;
    Param.bool_param ~stage:runtime "net.ipv4.tcp_timestamps" true;
    Param.bool_param ~stage:runtime "net.ipv4.tcp_sack" true;
    Param.int_param ~stage:runtime "vm.stat_interval" ~lo:1 ~hi:120 ~default:1;
    Param.int_param ~stage:runtime "vm.swappiness" ~lo:0 ~hi:200 ~default:60;
    Param.int_param ~stage:runtime "vm.dirty_ratio" ~lo:1 ~hi:99 ~default:20;
    Param.int_param ~stage:runtime "vm.dirty_background_ratio" ~lo:1 ~hi:99 ~default:10;
    Param.int_param ~stage:runtime "vm.overcommit_memory" ~lo:0 ~hi:2 ~default:0;
    Param.int_param ~stage:runtime ~log_scale:true "vm.nr_hugepages" ~lo:0 ~hi:4096 ~default:0;
    Param.bool_param ~stage:runtime "vm.block_dump" false;
    Param.bool_param ~stage:runtime "vm.laptop_mode" false;
    Param.int_param ~stage:runtime "vm.zone_reclaim_mode" ~lo:0 ~hi:7 ~default:0;
    Param.int_param ~stage:runtime ~log_scale:true "kernel.sched_migration_cost_ns" ~lo:50000
      ~hi:50000000 ~default:500000;
    Param.int_param ~stage:runtime ~log_scale:true "kernel.sched_min_granularity_ns" ~lo:100000
      ~hi:100000000 ~default:3000000;
    Param.bool_param ~stage:runtime "kernel.numa_balancing" true;
    Param.int_param ~stage:runtime "kernel.printk_level" ~lo:0 ~hi:8 ~default:4;
    Param.int_param ~stage:runtime ~log_scale:true "kernel.printk_delay" ~lo:0 ~hi:10000 ~default:0;
    Param.int_param ~stage:runtime "kernel.randomize_va_space" ~lo:0 ~hi:2 ~default:2;
    Param.bool_param ~stage:runtime "kernel.watchdog" true;
    Param.int_param ~stage:runtime ~log_scale:true "fs.file-max" ~lo:8192 ~hi:4194304
      ~default:812917 ]

let boot_params =
  [ Param.categorical_param ~stage:boot "mitigations" [| "auto"; "off"; "auto,nosmt" |] ~default:0;
    Param.bool_param ~stage:boot "isolcpus" false;
    Param.categorical_param ~stage:boot "preempt" [| "none"; "voluntary"; "full" |] ~default:1;
    Param.categorical_param ~stage:boot "transparent_hugepage" [| "always"; "madvise"; "never" |]
      ~default:1;
    Param.bool_param ~stage:boot "quiet" true;
    Param.bool_param ~stage:boot "audit" true;
    Param.bool_param ~stage:boot "threadirqs" false;
    Param.bool_param ~stage:boot "nosmt" false;
    Param.int_param ~stage:boot "nr_cpus" ~lo:1 ~hi:48 ~default:48;
    Param.int_param ~stage:boot ~log_scale:true "log_buf_len_kb" ~lo:16 ~hi:16384 ~default:128;
    Param.bool_param ~stage:boot "selinux" false;
    Param.bool_param ~stage:boot "nohz_full" false ]

let named_compile_params =
  [ Param.bool_param ~stage:compile "DEBUG_KERNEL" false;
    Param.bool_param ~stage:compile "PROVE_LOCKING" false;
    Param.bool_param ~stage:compile "LOCKDEP" false;
    Param.bool_param ~stage:compile "KASAN" false;
    Param.bool_param ~stage:compile "UBSAN" false;
    Param.bool_param ~stage:compile "DEBUG_PAGEALLOC" false;
    Param.bool_param ~stage:compile "SLUB_DEBUG_ON" false;
    Param.bool_param ~stage:compile "DEBUG_OBJECTS" false;
    Param.bool_param ~stage:compile "KMEMLEAK" false;
    Param.bool_param ~stage:compile "FTRACE" true;
    Param.bool_param ~stage:compile "SCHED_DEBUG" true;
    Param.categorical_param ~stage:compile "HZ" [| "100"; "250"; "1000" |] ~default:1;
    Param.tristate_param ~stage:compile "TCP_CONG_BBR" 1;
    Param.bool_param ~stage:compile "JUMP_LABEL" true;
    Param.bool_param ~stage:compile "NO_HZ_FULL" false ]

let filler_prefixes = [| "net.ipv4"; "net.core"; "vm"; "kernel"; "fs"; "dev.raid" |]
let filler_ranges = [| (0, 64); (1, 1024); (16, 65536); (1, 1048576); (0, 100) |]

let make_filler_runtime rng i =
  let prefix = Rng.choice rng filler_prefixes in
  let name = Printf.sprintf "%s.tunable_%02d" prefix i in
  let roll = Rng.float rng 1.0 in
  if roll < 0.25 then Param.bool_param ~stage:runtime name (Rng.bool rng)
  else begin
    let lo, hi = Rng.choice rng filler_ranges in
    let log_scale = hi - lo > 1000 in
    let default =
      if log_scale then
        let x = Rng.uniform rng (log10 (float_of_int (max 1 lo))) (log10 (float_of_int hi)) in
        max lo (min hi (int_of_float (10. ** x)))
      else Rng.int_in rng lo hi
    in
    Param.int_param ~stage:runtime ~log_scale name ~lo ~hi ~default
  end

let compile_subsystems = [| "SND"; "DRM"; "USB"; "NET_VENDOR"; "CRYPTO"; "FS_MISC"; "STAGING" |]

let make_filler_compile rng i =
  let prefix = Rng.choice rng compile_subsystems in
  let name = Printf.sprintf "%s_OPT_%02d" prefix i in
  if Rng.bernoulli rng 0.5 then Param.bool_param ~stage:compile name (Rng.bernoulli rng 0.4)
  else Param.tristate_param ~stage:compile name (if Rng.bernoulli rng 0.3 then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Position of a parameter's value inside its domain, in [0, 1]; used to
   place hidden crash regions at the top of integer ranges. *)
let unit_value (p : Param.t) v =
  match (p.Param.kind, v) with
  | Param.Kbool, Param.Vbool b -> if b then 1. else 0.
  | Param.Ktristate, Param.Vtristate x -> float_of_int x /. 2.
  | Param.Kint { lo; hi; log_scale }, Param.Vint i ->
    if hi = lo then 0.5
    else if log_scale && lo >= 0 then begin
      let l v = log10 (float_of_int (max 1 v)) in
      let denom = l hi -. l lo in
      if denom <= 0. then 0.5 else (l i -. l lo) /. denom
    end
    else float_of_int (i - lo) /. float_of_int (hi - lo)
  | Param.Kcategorical _, Param.Vcat _ -> 0.
  | (Param.Kbool | Param.Ktristate | Param.Kint _ | Param.Kcategorical _), _ -> 0.

let create ?(n_filler_runtime = 80) ?(n_filler_compile = 60) ?(seed = 0)
    ?(hardware = Hardware.xeon_e5_2697v2_one_node) () =
  let rng = Rng.create (Shapes.hash_combine (Shapes.hash_string "sim-linux") seed) in
  let filler_runtime = List.init n_filler_runtime (make_filler_runtime rng) in
  let filler_compile = List.init n_filler_compile (make_filler_compile rng) in
  let params =
    named_runtime_params @ filler_runtime @ boot_params @ named_compile_params @ filler_compile
  in
  let space = Space.create params in
  let n = Space.size space in
  (* Hidden crash regions: integer parameters crash in the top sliver of
     their range.  Named documented parameters are kept safe so that their
     documented optima are reachable; fillers carry the risk, which is what
     drives the ~1/3 random crash rate of §2.2. *)
  let defaults = Space.defaults space in
  let crash_fraction =
    Array.init n (fun i ->
        let p = Space.param space i in
        let named = List.exists (fun q -> q.Param.name = p.Param.name) named_runtime_params in
        match p.Param.kind with
        | Param.Kint _ when not named ->
          let r = Shapes.rng_named p.Param.name ~salt:(seed + 17) in
          if Rng.bernoulli r 0.35 then begin
            let q = Rng.uniform r 0.035 0.06 in
            (* The default value must never sit inside its own crash
               region (the stock kernel works). *)
            if unit_value p defaults.(i) > 1. -. q then 0. else q
          end
          else 0.
        | Param.Kint _ | Param.Kbool | Param.Ktristate | Param.Kcategorical _ -> 0.)
  in
  (* Conflicting boolean pairs among runtime fillers. *)
  let filler_bool_indices =
    (* Only default-off booleans may conflict: the stock configuration must
       never crash. *)
    List.filter_map
      (fun p ->
        match (p.Param.kind, p.Param.default) with
        | Param.Kbool, Param.Vbool false -> Some (Space.index_of space p.Param.name)
        | (Param.Kbool | Param.Ktristate | Param.Kint _ | Param.Kcategorical _), _ -> None)
      filler_runtime
    |> Array.of_list
  in
  let pair_rng = Rng.create (Shapes.hash_combine seed 23) in
  let conflict_pairs =
    if Array.length filler_bool_indices < 4 then []
    else begin
      let a = filler_bool_indices.(Rng.int pair_rng (Array.length filler_bool_indices)) in
      let rec pick_b () =
        let b = filler_bool_indices.(Rng.int pair_rng (Array.length filler_bool_indices)) in
        if b = a then pick_b () else b
      in
      [ (a, pick_b ()) ]
    end
  in
  (* Build conflicts: KASAN+DEBUG_PAGEALLOC, plus random filler-compile
     pairs. *)
  let compile_indices =
    (* Same rule as runtime conflicts: only default-off options may
       conflict, so the stock image always builds. *)
    List.filter_map
      (fun p ->
        match (p.Param.kind, p.Param.default) with
        | Param.Kbool, Param.Vbool false | Param.Ktristate, Param.Vtristate 0 ->
          Some (Space.index_of space p.Param.name)
        | (Param.Kbool | Param.Ktristate | Param.Kint _ | Param.Kcategorical _), _ -> None)
      filler_compile
    |> Array.of_list
  in
  let build_conflicts =
    let base = [ (Space.index_of space "KASAN", Space.index_of space "DEBUG_PAGEALLOC") ] in
    if Array.length compile_indices < 2 then base
    else begin
      let a = compile_indices.(Rng.int pair_rng (Array.length compile_indices)) in
      let b = compile_indices.(Rng.int pair_rng (Array.length compile_indices)) in
      if a = b then base else base @ [ (a, b) ]
    end
  in
  let filler_memory_mb =
    Array.init n (fun i ->
        let p = Space.param space i in
        if p.Param.stage = compile then begin
          let r = Shapes.rng_named p.Param.name ~salt:(seed + 31) in
          Rng.uniform r 0.1 1.6
        end
        else 0.)
  in
  { space; hardware; seed; crash_fraction; conflict_pairs; build_conflicts; filler_memory_mb }

let space t = t.space

(* ------------------------------------------------------------------ *)
(* Accessors over a configuration                                      *)
(* ------------------------------------------------------------------ *)

let geti t config name =
  match Space.get t.space config name with
  | Param.Vint i -> i
  | Param.Vbool _ | Param.Vtristate _ | Param.Vcat _ -> 0

let getb t config name =
  match Space.get t.space config name with
  | Param.Vbool b -> b
  | Param.Vint _ | Param.Vtristate _ | Param.Vcat _ -> false

let gett t config name =
  match Space.get t.space config name with
  | Param.Vtristate x -> x
  | Param.Vbool _ | Param.Vint _ | Param.Vcat _ -> 0

let getc t config name =
  match Space.get t.space config name with
  | Param.Vcat c -> c
  | Param.Vbool _ | Param.Vint _ | Param.Vtristate _ -> 0

let config_hash t config = Shapes.config_hash ~seed:t.seed ~salt:7 Shapes.value_code config

(* ------------------------------------------------------------------ *)
(* Crash model                                                         *)
(* ------------------------------------------------------------------ *)

(* Fraction of the values inside a parameter's hidden crash region that
   actually crash; which ones is a deterministic property of the value
   (hash-selected), never a per-run coin flip — a bad sysctl value is bad
   every time, and a working configuration keeps working when unrelated
   parameters change. *)
let crash_value_fraction = 0.5

let value_crashes t i v =
  let p = Space.param t.space i in
  t.crash_fraction.(i) > 0.
  && unit_value p v > 1. -. t.crash_fraction.(i)
  && (let code =
        match v with
        | Param.Vint x -> x
        | Param.Vbool b -> if b then 1 else 0
        | Param.Vtristate x -> x
        | Param.Vcat c -> c
      in
      let h = Shapes.hash_combine (Shapes.hash_string p.Param.name) (code + t.seed) in
      float_of_int (h mod 1000) < crash_value_fraction *. 1000.)

let check_crash t config =
  (* Returns the first failing stage, checking build, then boot, then
     runtime — like the real pipeline.  Every rule is deterministic in the
     configuration. *)
  let flag_on i =
    match config.(i) with
    | Param.Vbool b -> b
    | Param.Vtristate x -> x > 0
    | Param.Vint _ | Param.Vcat _ -> false
  in
  let build_failed = List.exists (fun (a, b) -> flag_on a && flag_on b) t.build_conflicts in
  if build_failed then Some Build_failure
  else begin
    let boot_failed =
      (* Severely under-provisioned CPU count fails secondary bring-up;
         full tickless operation conflicts with forced-threaded IRQs. *)
      geti t config "nr_cpus" < 2
      || (getb t config "nohz_full" && getb t config "threadirqs")
    in
    if boot_failed then Some Boot_failure
    else begin
      let runtime_crashed = ref false in
      Array.iteri (fun i v -> if value_crashes t i v then runtime_crashed := true) config;
      if !runtime_crashed then Some Runtime_crash
      else if List.exists (fun (a, b) -> flag_on a && flag_on b) t.conflict_pairs then
        Some Runtime_crash
      else if
        (* Selecting BBR without the BBR compile option: the sysctl write
           fails and the benchmark tooling aborts. *)
        getc t config "net.ipv4.tcp_congestion_control" = 1
        && gett t config "TCP_CONG_BBR" = 0
      then Some Runtime_crash
      else None
    end
  end

(* ------------------------------------------------------------------ *)
(* Performance model                                                   *)
(* ------------------------------------------------------------------ *)

let debug_penalties =
  [ ("DEBUG_KERNEL", 0.04); ("PROVE_LOCKING", 0.07); ("LOCKDEP", 0.05); ("KASAN", 0.15);
    ("UBSAN", 0.08); ("DEBUG_PAGEALLOC", 0.10); ("SLUB_DEBUG_ON", 0.06); ("DEBUG_OBJECTS", 0.04);
    ("KMEMLEAK", 0.05) ]

let compile_factor t config ~weight =
  let f = ref 1. in
  let apply delta = f := !f *. (1. +. delta) in
  List.iter
    (fun (name, loss) -> if getb t config name then apply (-.loss *. weight))
    debug_penalties;
  (match getc t config "HZ" with
  | 0 -> apply (0.01 *. weight)
  | 2 -> apply (-0.01 *. weight)
  | _ -> ());
  if not (getb t config "JUMP_LABEL") then apply (-0.005 *. weight);
  !f

let boot_factor t config ~app =
  let f = ref 1. in
  let apply delta = f := !f *. (1. +. delta) in
  let network = App.profile app = App.Network_intensive in
  (match getc t config "mitigations" with
  | 1 -> apply (if network then 0.03 else 0.008)
  | 2 -> apply (-0.01)
  | _ -> ());
  (match getc t config "preempt" with
  | 0 -> apply 0.01
  | 2 -> apply (-0.02)
  | _ -> ());
  (match (getc t config "transparent_hugepage", app) with
  | 0, App.Npb -> apply 0.02
  | 0, App.Redis -> apply (-0.03)
  | 0, App.Nginx -> apply 0.005
  | 2, App.Redis -> apply 0.01
  | _, _ -> ());
  if not (getb t config "quiet") then apply (-0.01);
  if not (getb t config "audit") then apply 0.01;
  if getb t config "isolcpus" && network then apply 0.005;
  (* Under-provisioned CPUs strangle multicore applications. *)
  let cores = min (geti t config "nr_cpus") t.hardware.Hardware.cores in
  let needed = App.cores_used app in
  if cores < needed then apply (float_of_int cores /. float_of_int needed -. 1.);
  !f

let network_runtime_factor t config ~gain_scale ~concurrency =
  let f = ref 1. in
  let apply delta = f := !f *. (1. +. (delta *. gain_scale)) in
  (* Backlog-type parameters only pay off under connection pressure: a
     low-concurrency workload never fills the queues (§3.5, sensitivity to
     workload). *)
  let backlog delta = apply (delta *. (0.25 +. (0.75 *. concurrency))) in
  let somaxconn = geti t config "net.core.somaxconn" in
  let syn_backlog = geti t config "net.ipv4.tcp_max_syn_backlog" in
  backlog (Shapes.saturating ~v:somaxconn ~reference:128 ~cap_ratio:64. ~gain:0.05);
  backlog (Shapes.saturating ~v:syn_backlog ~reference:1024 ~cap_ratio:16. ~gain:0.02);
  if somaxconn >= 4096 && syn_backlog >= 8192 then backlog 0.03;
  apply
    (Shapes.peaked ~v:(geti t config "net.core.rmem_default") ~optimum:1048576 ~width:0.6 ~gain:0.04);
  apply
    (Shapes.peaked ~v:(geti t config "net.core.wmem_default") ~optimum:1048576 ~width:0.6
       ~gain:0.015);
  apply
    (Shapes.peaked ~v:(geti t config "net.ipv4.tcp_keepalive_time") ~optimum:600 ~width:0.5
       ~gain:0.02);
  backlog
    (Shapes.saturating ~v:(geti t config "net.core.netdev_max_backlog") ~reference:1000
       ~cap_ratio:8. ~gain:0.015);
  if geti t config "net.ipv4.tcp_fastopen" = 3 then apply 0.02;
  apply (Shapes.peaked ~v:(geti t config "net.core.busy_poll") ~optimum:50 ~width:0.4 ~gain:0.03);
  apply (Shapes.peaked ~v:(geti t config "net.core.busy_read") ~optimum:50 ~width:0.4 ~gain:0.01);
  (match getc t config "net.ipv4.tcp_congestion_control" with
  | 1 when gett t config "TCP_CONG_BBR" > 0 -> apply 0.02
  | 2 -> apply (-0.02)
  | 3 -> apply (-0.04)
  | _ -> ());
  (match getc t config "net.core.default_qdisc" with
  | 1 -> apply 0.01
  | 2 -> apply 0.005
  | _ -> ());
  if getb t config "net.ipv4.tcp_tw_reuse" then apply 0.01;
  if not (getb t config "net.ipv4.tcp_timestamps") then apply 0.005;
  if not (getb t config "net.ipv4.tcp_sack") then apply (-0.01);
  !f

let common_negative_factor ?(weight = 1.) t config =
  (* Logging/debug penalties hit system-intensive applications hard; a
     CPU-bound workload barely notices them (hence the weight). *)
  let f = ref 1. in
  let apply delta = f := !f *. (1. +. (delta *. weight)) in
  apply (Shapes.level_penalty ~level:(geti t config "kernel.printk_level") ~neutral:4 ~per_level:0.015);
  let delay = geti t config "kernel.printk_delay" in
  if delay > 0 then apply (-0.05 *. min 1. (float_of_int delay /. 100.));
  if getb t config "vm.block_dump" then apply (-0.05);
  if getb t config "vm.laptop_mode" then apply (-0.02);
  if geti t config "vm.zone_reclaim_mode" > 0 then apply (-0.02);
  !f

let scheduler_factor t config ~gain_scale =
  let f = ref 1. in
  let apply delta = f := !f *. (1. +. (delta *. gain_scale)) in
  apply
    (Shapes.saturating ~v:(geti t config "kernel.sched_migration_cost_ns") ~reference:500000
       ~cap_ratio:10. ~gain:0.01);
  apply
    (Shapes.peaked ~v:(geti t config "kernel.sched_min_granularity_ns") ~optimum:10000000
       ~width:0.6 ~gain:0.008);
  if not (getb t config "kernel.numa_balancing") then apply 0.01;
  !f

let vm_stat_factor t config ~gain =
  1. +. Shapes.saturating ~v:(geti t config "vm.stat_interval") ~reference:1 ~cap_ratio:60. ~gain

(* Reserving a large slice of RAM as huge pages starves the page cache and
   socket buffers. *)
let hugepage_pressure_factor t config =
  let reserved = 2. *. float_of_int (geti t config "vm.nr_hugepages") in
  let ram = float_of_int t.hardware.Hardware.ram_mb in
  if reserved > 0.1 *. ram then 0.92 else 1.

let performance_factor t ~app ~workload config =
  let concurrency = Workload.concurrency workload in
  let writes = Workload.write_intensity workload in
  match app with
  | App.Nginx ->
    network_runtime_factor t config ~gain_scale:1.0 ~concurrency
    *. hugepage_pressure_factor t config
    *. vm_stat_factor t config ~gain:0.015
    *. scheduler_factor t config ~gain_scale:1.0
    *. common_negative_factor t config
    *. boot_factor t config ~app
    *. compile_factor t config ~weight:1.0
  | App.Redis ->
    let f = ref (network_runtime_factor t config ~gain_scale:0.7 ~concurrency) in
    let apply delta = f := !f *. (1. +. delta) in
    if geti t config "vm.overcommit_memory" = 1 then apply 0.03;
    apply (Shapes.peaked ~v:(geti t config "vm.swappiness") ~optimum:10 ~width:0.6 ~gain:0.015);
    (* RDB/AOF persistence makes redis writeback-sensitive in proportion
       to the SET share of the workload. *)
    let wb = 0.4 +. (0.6 *. writes /. 0.2) in
    let wb = Stdlib.min 2. wb in
    apply
      (wb *. Shapes.peaked ~v:(geti t config "vm.dirty_ratio") ~optimum:40 ~width:0.5 ~gain:0.01);
    apply
      (wb
      *. Shapes.peaked ~v:(geti t config "vm.dirty_background_ratio") ~optimum:15 ~width:0.5
           ~gain:0.008);
    !f
    *. hugepage_pressure_factor t config
    *. vm_stat_factor t config ~gain:0.01
    *. scheduler_factor t config ~gain_scale:0.5
    *. common_negative_factor t config
    *. boot_factor t config ~app
    *. compile_factor t config ~weight:0.9
  | App.Sqlite ->
    (* Latency in μs/op: the returned factor multiplies *latency*, so
       penalties are > 1.  The default is already near-optimal (§4.1:
       "the default configuration is already highly efficient"). *)
    let penalty = ref 1. in
    let worsen delta = penalty := !penalty *. (1. +. delta) in
    let off_peak v optimum width gain =
      (* 0 at the optimum, +gain far away; INSERT-heavy workloads react
         more strongly to writeback tuning. *)
      let gain = gain *. (0.5 +. (0.5 *. writes)) in
      gain -. Shapes.peaked ~v ~optimum ~width ~gain
    in
    worsen (off_peak (geti t config "vm.dirty_ratio") 20 0.4 0.04);
    worsen (off_peak (geti t config "vm.dirty_background_ratio") 10 0.4 0.02);
    worsen (off_peak (geti t config "vm.swappiness") 60 0.5 0.015);
    (* Everything that slows the kernel inflates latency. *)
    worsen (1. /. common_negative_factor t config -. 1.);
    worsen (1. /. compile_factor t config ~weight:0.5 -. 1.);
    worsen (1. /. boot_factor t config ~app -. 1.);
    !penalty
  | App.Npb ->
    let f = ref 1. in
    let apply delta = f := !f *. (1. +. delta) in
    apply (Shapes.peaked ~v:(geti t config "vm.nr_hugepages") ~optimum:512 ~width:0.5 ~gain:0.008);
    !f
    *. scheduler_factor t config ~gain_scale:0.4
    *. common_negative_factor ~weight:0.15 t config
    *. boot_factor t config ~app
    *. compile_factor t config ~weight:0.2

let noise_sigma = function
  | App.Nginx | App.Redis -> 0.012
  | App.Sqlite -> 0.008
  | App.Npb -> 0.01

(* ------------------------------------------------------------------ *)
(* Durations                                                           *)
(* ------------------------------------------------------------------ *)

let enabled_compile_count t config =
  let count = ref 0 in
  Array.iteri
    (fun i v ->
      if (Space.param t.space i).Param.stage = compile then
        match v with
        | Param.Vbool true | Param.Vtristate (1 | 2) -> incr count
        | Param.Vbool false | Param.Vtristate _ | Param.Vint _ | Param.Vcat _ -> ())
    config;
  !count

let durations_for t ~workload config draw =
  let build_s =
    120. +. (1.5 *. float_of_int (enabled_compile_count t config)) +. Rng.uniform draw 0. 30.
  in
  let boot_s = 9. +. Rng.uniform draw 0. 4. in
  let run_s = Workload.duration_s workload +. Rng.uniform draw (-8.) 8. in
  { build_s; boot_s; run_s }

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let evaluate t ~app ?workload ?(trial = 0) config =
  let workload = match workload with Some w -> w | None -> Workload.default_for app in
  if not (Workload.matches_app workload app) then
    invalid_arg "Sim_linux.evaluate: workload does not drive this application";
  (match Space.validate t.space config with
  | [] -> ()
  | (_, msg) :: _ -> invalid_arg ("Sim_linux.evaluate: invalid configuration: " ^ msg));
  (* Crash determination is a deterministic property of the configuration
     (a bad configuration is bad every time); measurement noise is not. *)
  let noise_draw =
    Rng.create (Shapes.hash_combine (config_hash t config) (Shapes.hash_combine 211 trial))
  in
  let durations = durations_for t ~workload config noise_draw in
  match check_crash t config with
  | Some stage ->
    let durations =
      match stage with
      | Build_failure -> { durations with boot_s = 0.; run_s = 0. }
      | Boot_failure -> { durations with run_s = 0. }
      | Runtime_crash -> { durations with run_s = durations.run_s /. 2. }
    in
    { result = Error stage; durations }
  | None ->
    let base = App.default_performance app in
    let factor = performance_factor t ~app ~workload config in
    let noise = exp (Rng.normal noise_draw ~sigma:(noise_sigma app) ()) in
    { result = Ok (base *. factor *. noise); durations }

let default_value t ~app ?workload () =
  let workload = match workload with Some w -> w | None -> Workload.default_for app in
  App.default_performance app *. performance_factor t ~app ~workload (Space.defaults t.space)

(* ------------------------------------------------------------------ *)
(* Memory footprint                                                    *)
(* ------------------------------------------------------------------ *)

let memory_footprint_mb t config =
  let base = 182. in
  let acc = ref base in
  Array.iteri
    (fun i v ->
      let p = Space.param t.space i in
      if p.Param.stage = compile then begin
        match v with
        | Param.Vbool true -> acc := !acc +. t.filler_memory_mb.(i)
        | Param.Vtristate 2 -> acc := !acc +. t.filler_memory_mb.(i)
        | Param.Vtristate 1 -> acc := !acc +. (0.4 *. t.filler_memory_mb.(i))
        | Param.Vbool false | Param.Vtristate _ | Param.Vint _ | Param.Vcat _ -> ()
      end)
    config;
  (* Debug machinery is memory-hungry. *)
  List.iter
    (fun (name, loss) -> if getb t config name then acc := !acc +. (200. *. loss))
    debug_penalties;
  (* Huge pages reserve memory up front (2 MB per page), but the kernel
     only satisfies the reservation while free memory lasts. *)
  let hugepage_mb =
    Stdlib.min
      (2. *. float_of_int (geti t config "vm.nr_hugepages"))
      (0.3 *. float_of_int t.hardware.Hardware.ram_mb)
  in
  acc := !acc +. hugepage_mb;
  (* Runtime knobs move resident memory too: default socket buffers are
     provisioned across the socket pool, and the file table scales with
     fs.file-max — so a tuned configuration can also come in *below* the
     stock footprint (Table 4). *)
  let buffers_mb =
    float_of_int (geti t config "net.core.rmem_default" + geti t config "net.core.wmem_default")
    /. 1048576. *. 0.8
  in
  acc := !acc +. buffers_mb;
  acc := !acc +. (0.9 *. float_of_int (geti t config "fs.file-max") /. 1e6);
  !acc

(* ------------------------------------------------------------------ *)
(* Simulated /proc/sys                                                 *)
(* ------------------------------------------------------------------ *)

let sysfs t =
  let defaults = Space.defaults t.space in
  let current = Hashtbl.create 64 in
  let runtime_params =
    Array.to_list (Space.params t.space)
    |> List.filter (fun p -> p.Param.stage = runtime)
  in
  List.iter
    (fun p ->
      let i = Space.index_of t.space p.Param.name in
      Hashtbl.replace current p.Param.name (Param.value_to_string p.Param.kind defaults.(i)))
    runtime_params;
  let find name = List.find_opt (fun p -> p.Param.name = name) runtime_params in
  { Probe.list_files = (fun () -> List.map (fun p -> p.Param.name) runtime_params);
    read = (fun name -> Hashtbl.find_opt current name);
    write =
      (fun name value_str ->
        match find name with
        | None -> Probe.Rejected
        | Some p -> (
          match Param.value_of_string p.Param.kind value_str with
          | None -> Probe.Rejected
          | Some v ->
            let i = Space.index_of t.space p.Param.name in
            if value_crashes t i v then Probe.Crash
            else begin
              Hashtbl.replace current name value_str;
              Probe.Accepted
            end)) }
