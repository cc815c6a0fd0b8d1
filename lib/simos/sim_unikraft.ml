module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Rng = Wayfinder_tensor.Rng

type t = { space : Space.t; seed : int }

let app = Param.Runtime
let os = Param.Compile_time

(* Unikernel menuconfig exposes sizes as fixed pick-lists (powers of two),
   which is what keeps the whole space at the paper's ~3.7×10¹³
   permutations instead of a quasi-continuum. *)
let quantized ?(stage = os) name values ~default =
  let choices = Array.map string_of_int (Array.of_list values) in
  let rec index_of i = if choices.(i) = string_of_int default then i else index_of (i + 1) in
  Param.categorical_param ~stage name choices ~default:(index_of 0)

(* 10 Nginx application-level parameters. *)
let app_params =
  [ quantized ~stage:app "worker_processes" [ 1; 2; 4; 8 ] ~default:1;
    quantized ~stage:app "worker_connections" [ 512; 1024; 2048; 4096 ] ~default:512;
    quantized ~stage:app "keepalive_requests" [ 100; 1000; 10000 ] ~default:1000;
    quantized ~stage:app "keepalive_timeout" [ 0; 15; 75; 300 ] ~default:75;
    Param.bool_param ~stage:app "sendfile" true;
    Param.bool_param ~stage:app "tcp_nopush" false;
    Param.bool_param ~stage:app "tcp_nodelay" true;
    Param.bool_param ~stage:app "access_log" true;
    Param.bool_param ~stage:app "gzip" true;
    Param.bool_param ~stage:app "open_file_cache" false ]

(* 23 Unikraft OS parameters. *)
let os_params =
  [ Param.categorical_param ~stage:os "UK_ALLOC" [| "buddy"; "tlsf"; "region" |] ~default:0;
    Param.categorical_param ~stage:os "UK_SCHED" [| "coop"; "preempt" |] ~default:0;
    Param.bool_param ~stage:os "LWIP_POOLS" false;
    quantized "LWIP_TCP_SND_BUF_KB" [ 64; 128; 256; 512; 1024 ] ~default:64;
    quantized "LWIP_TCP_WND_KB" [ 64; 128; 256; 512; 1024 ] ~default:64;
    quantized "LWIP_NUM_TCPCON" [ 64; 128; 256; 512 ] ~default:64;
    quantized "UK_NETDEV_BUFS" [ 512; 1024; 2048; 4096 ] ~default:512;
    quantized "UK_HEAP_MB" [ 16; 64; 128; 256 ] ~default:128;
    quantized "UK_STACK_KB" [ 16; 64; 128; 256 ] ~default:64;
    Param.bool_param ~stage:os "PIE" true;
    Param.bool_param ~stage:os "DEBUG_PRINTK" false;
    Param.bool_param ~stage:os "UK_ASSERT" false;
    Param.bool_param ~stage:os "TRACEPOINTS" false;
    Param.bool_param ~stage:os "LIBUKMMAP" true;
    Param.bool_param ~stage:os "UK_TIME_TICKLESS" false;
    Param.bool_param ~stage:os "NET_POLL" false;
    quantized "TX_BATCH" [ 1; 8; 32; 64 ] ~default:1;
    quantized "RX_BATCH" [ 1; 8; 32; 64 ] ~default:1;
    Param.bool_param ~stage:os "CHECKSUM_OFFLOAD" true;
    Param.bool_param ~stage:os "ZEROCOPY" false;
    Param.bool_param ~stage:os "UK_LIBPARAM" true;
    Param.categorical_param ~stage:os "MEM_POOL_ALIGN" [| "16"; "64"; "4096" |] ~default:1;
    Param.bool_param ~stage:os "ISR_AFFINITY" false ]

let create ?(seed = 0) () = { space = Space.create (app_params @ os_params); seed }

let space t = t.space

type outcome = {
  result : (float, [ `Build_failure | `Runtime_crash ]) result;
  build_s : float;
  boot_s : float;
  run_s : float;
}

(* Numeric read that works for both [Kint] and quantized categorical
   parameters. *)
let geti t config name =
  let i = Space.index_of t.space name in
  let p = Space.param t.space i in
  match int_of_string_opt (Param.value_to_string p.Param.kind config.(i)) with
  | Some v -> v
  | None -> 0

let getb t config name =
  match Space.get t.space config name with Param.Vbool b -> b | _ -> false

let getc t config name =
  match Space.get t.space config name with Param.Vcat c -> c | _ -> 0

let config_hash t config = Shapes.config_hash ~seed:t.seed ~salt:77 Shapes.value_code config

let check_crash t config draw =
  (* The region allocator cannot back LWIP pools: link-time failure. *)
  if getc t config "UK_ALLOC" = 2 && getb t config "LWIP_POOLS" && Rng.bernoulli draw 0.8 then
    Some `Build_failure
  else if geti t config "UK_HEAP_MB" < 32 && Rng.bernoulli draw 0.7 then Some `Runtime_crash
  else if geti t config "UK_STACK_KB" < 32 && Rng.bernoulli draw 0.6 then Some `Runtime_crash
  else if getb t config "ZEROCOPY" && (not (getb t config "LWIP_POOLS")) && Rng.bernoulli draw 0.5
  then Some `Runtime_crash
  else if
    (* Oversized TCP windows overflow a 128 MB-class heap. *)
    geti t config "LWIP_TCP_WND_KB" >= 1024
    && geti t config "UK_HEAP_MB" < 256
    && Rng.bernoulli draw 0.6
  then Some `Runtime_crash
  else None

let default_base = 8900.

let performance_factor t config =
  let f = ref 1. in
  let apply delta = f := !f *. (1. +. delta) in
  (* --- Application-level --- *)
  apply (Shapes.saturating ~v:(geti t config "worker_processes") ~reference:1 ~cap_ratio:4. ~gain:0.08);
  apply
    (Shapes.saturating ~v:(geti t config "worker_connections") ~reference:512 ~cap_ratio:8.
       ~gain:0.06);
  apply
    (Shapes.saturating ~v:(geti t config "keepalive_requests") ~reference:1000 ~cap_ratio:32.
       ~gain:0.04);
  apply (Shapes.peaked ~v:(geti t config "keepalive_timeout") ~optimum:15 ~width:0.5 ~gain:0.03);
  if not (getb t config "sendfile") then apply (-0.05);
  if getb t config "tcp_nopush" && getb t config "sendfile" then apply 0.03;
  if not (getb t config "tcp_nodelay") then apply (-0.03);
  if not (getb t config "access_log") then apply 0.10;
  if not (getb t config "gzip") then apply 0.06;
  if getb t config "open_file_cache" then apply 0.05;
  (* --- Unikraft OS --- *)
  (match getc t config "UK_ALLOC" with
  | 1 -> apply 0.12
  | 2 -> apply (-0.05)
  | _ -> ());
  let preemptive = getc t config "UK_SCHED" = 1 in
  if preemptive then apply (-0.04);
  if getb t config "LWIP_POOLS" then apply 0.06;
  let snd_buf = geti t config "LWIP_TCP_SND_BUF_KB" in
  let wnd = geti t config "LWIP_TCP_WND_KB" in
  apply (Shapes.peaked ~v:snd_buf ~optimum:512 ~width:0.5 ~gain:0.10);
  apply (Shapes.peaked ~v:wnd ~optimum:256 ~width:0.5 ~gain:0.08);
  if snd_buf >= 256 && wnd >= 128 then apply 0.05;
  apply (Shapes.saturating ~v:(geti t config "LWIP_NUM_TCPCON") ~reference:64 ~cap_ratio:8. ~gain:0.05);
  apply (Shapes.peaked ~v:(geti t config "UK_NETDEV_BUFS") ~optimum:2048 ~width:0.5 ~gain:0.04);
  apply (Shapes.peaked ~v:(geti t config "UK_HEAP_MB") ~optimum:256 ~width:0.4 ~gain:0.02);
  if not (getb t config "PIE") then apply 0.02;
  if getb t config "DEBUG_PRINTK" then apply (-0.10);
  if getb t config "UK_ASSERT" then apply (-0.05);
  if getb t config "TRACEPOINTS" then apply (-0.04);
  if getb t config "UK_TIME_TICKLESS" then apply 0.03;
  (* Busy polling only pays off under the cooperative scheduler. *)
  if getb t config "NET_POLL" && not preemptive then apply 0.08;
  apply (Shapes.saturating ~v:(geti t config "TX_BATCH") ~reference:1 ~cap_ratio:32. ~gain:0.05);
  apply (Shapes.saturating ~v:(geti t config "RX_BATCH") ~reference:1 ~cap_ratio:32. ~gain:0.05);
  if not (getb t config "CHECKSUM_OFFLOAD") then apply (-0.06);
  if getb t config "ZEROCOPY" && getb t config "LWIP_POOLS" then apply 0.07;
  if getc t config "MEM_POOL_ALIGN" = 2 then apply 0.02;
  if getb t config "ISR_AFFINITY" then apply 0.02;
  !f

let evaluate t ?(trial = 0) config =
  (match Space.validate t.space config with
  | [] -> ()
  | (_, msg) :: _ -> invalid_arg ("Sim_unikraft.evaluate: invalid configuration: " ^ msg));
  let h = config_hash t config in
  let crash_draw = Rng.create (Shapes.hash_combine h 303) in
  let noise_draw = Rng.create (Shapes.hash_combine h (Shapes.hash_combine 404 trial)) in
  (* Unikernel images build in tens of seconds and boot in milliseconds. *)
  let build_s = 35. +. Rng.uniform noise_draw 0. 15. in
  let boot_s = 0.2 in
  let run_s = 40. +. Rng.uniform noise_draw (-5.) 5. in
  match check_crash t config crash_draw with
  | Some `Build_failure -> { result = Error `Build_failure; build_s; boot_s = 0.; run_s = 0. }
  | Some `Runtime_crash ->
    { result = Error `Runtime_crash; build_s; boot_s; run_s = run_s /. 2. }
  | None ->
    let noise = exp (Rng.normal noise_draw ~sigma:0.015 ()) in
    { result = Ok (default_base *. performance_factor t config *. noise); build_s; boot_s; run_s }

let default_value t = default_base *. performance_factor t (Space.defaults t.space)
