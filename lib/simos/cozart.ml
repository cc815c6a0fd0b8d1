module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Rng = Wayfinder_tensor.Rng

type t = {
  sim : Sim_linux.t;
  app : App.t;
  traced : string list;
  reduced : Space.t;
  throughput_scale : float;
  memory_scale : float;
}

(* Options the application's trace exercises.  Debug machinery is never
   traced; infrastructure options always are; filler subsystems are kept
   with an app-dependent, deterministic probability. *)
let trace_keeps app name =
  let never = [ "DEBUG_KERNEL"; "PROVE_LOCKING"; "LOCKDEP"; "KASAN"; "UBSAN"; "DEBUG_PAGEALLOC";
                "SLUB_DEBUG_ON"; "DEBUG_OBJECTS"; "KMEMLEAK" ]
  in
  let always = [ "HZ"; "TCP_CONG_BBR"; "JUMP_LABEL"; "NO_HZ_FULL"; "FTRACE"; "SCHED_DEBUG" ] in
  if List.mem name never then false
  else if List.mem name always then true
  else begin
    let keep_probability =
      match App.profile app with
      | App.Network_intensive ->
        if String.length name >= 3 && String.sub name 0 3 = "NET" then 0.9 else 0.15
      | App.Storage_intensive ->
        if String.length name >= 2 && String.sub name 0 2 = "FS" then 0.9 else 0.15
      | App.Compute_intensive -> 0.08
    in
    let r = Shapes.rng_named ("cozart:" ^ App.name app ^ ":" ^ name) ~salt:1 in
    Rng.bernoulli r keep_probability
  end

let table4_throughput = 46855.
let table4_memory_mb = 331.77

let create sim ~app =
  let space = Sim_linux.space sim in
  let traced = ref [] in
  let pins = ref [] in
  Array.iter
    (fun p ->
      if p.Param.stage = Param.Compile_time then begin
        if trace_keeps app p.Param.name then traced := p.Param.name :: !traced
        else begin
          let off =
            match p.Param.kind with
            | Param.Kbool -> Some (Param.Vbool false)
            | Param.Ktristate -> Some (Param.Vtristate 0)
            | Param.Kint _ | Param.Kcategorical _ -> None
          in
          match off with
          | Some v -> pins := (p.Param.name, v) :: !pins
          | None -> traced := p.Param.name :: !traced
        end
      end)
    (Space.params space);
  let reduced = Space.fix space !pins in
  let debloated = Space.defaults reduced in
  let tmp =
    { sim; app; traced = List.rev !traced; reduced; throughput_scale = 1.;
      memory_scale = 1. }
  in
  (* Re-anchor to the Table 4 testbed: the debloated default reads exactly
     the Cozart baseline. *)
  let raw_throughput =
    App.default_performance app
    *. (match (Sim_linux.evaluate sim ~app debloated).Sim_linux.result with
       | Ok v -> v /. App.default_performance app
       | Error _ -> 1.)
  in
  let raw_memory = Sim_linux.memory_footprint_mb sim debloated in
  { tmp with
    throughput_scale = table4_throughput /. raw_throughput;
    memory_scale = table4_memory_mb /. raw_memory }

let traced_options t = t.traced
let reduced_space t = t.reduced

let baseline_throughput (_ : t) = table4_throughput
let baseline_memory_mb (_ : t) = table4_memory_mb

type outcome = {
  throughput : (float, Sim_linux.failure_stage) result;
  memory_mb : float;
  durations : Sim_linux.durations;
}

let evaluate t ?(trial = 0) config =
  let outcome = Sim_linux.evaluate t.sim ~app:t.app ~trial config in
  let throughput =
    match outcome.Sim_linux.result with
    | Ok v -> Ok (v *. t.throughput_scale)
    | Error stage -> Error stage
  in
  { throughput;
    memory_mb = Sim_linux.memory_footprint_mb t.sim config *. t.memory_scale;
    durations = outcome.Sim_linux.durations }
