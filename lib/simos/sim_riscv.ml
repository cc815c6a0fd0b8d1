module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Rng = Wayfinder_tensor.Rng

type t = {
  space : Space.t;
  seed : int;
  cost_mb : float array;  (* memory cost of each enabled option *)
  essential : bool array;  (* disabling an essential default-on option breaks boot *)
  base_mb : float;
}

let subsystems = [| "SOC"; "DRIVER"; "FS"; "NET"; "SND"; "GPU"; "USB"; "CRYPTO" |]

let create ?(n_options = 140) ?(seed = 0) () =
  let rng = Rng.create (Shapes.hash_combine (Shapes.hash_string "sim-riscv") seed) in
  let params =
    List.init n_options (fun i ->
        let prefix = Rng.choice rng subsystems in
        let name = Printf.sprintf "%s_RV_%03d" prefix i in
        (* Two thirds of options ship enabled in the stock defconfig. *)
        Param.bool_param ~stage:Param.Compile_time name (Rng.bernoulli rng 0.66))
  in
  let space = Space.create params in
  let cost_rng = Rng.create (Shapes.hash_combine seed 5) in
  let cost_mb = Array.init n_options (fun _ -> Rng.uniform cost_rng 0.15 1.1) in
  let essential =
    Array.init n_options (fun i ->
        match (Space.param space i).Param.default with
        | Param.Vbool true -> Rng.bernoulli cost_rng 0.12
        | Param.Vbool false | Param.Vtristate _ | Param.Vint _ | Param.Vcat _ -> false)
  in
  (* Anchor the default image at 210 MB. *)
  let default_cost = ref 0. in
  Array.iteri
    (fun i p ->
      match p.Param.default with
      | Param.Vbool true -> default_cost := !default_cost +. cost_mb.(i)
      | Param.Vbool false | Param.Vtristate _ | Param.Vint _ | Param.Vcat _ -> ())
    (Space.params space);
  { space; seed; cost_mb; essential; base_mb = 210. -. !default_cost }

let space t = t.space

type outcome = {
  result : (float, [ `Build_failure | `Boot_failure ]) result;
  build_s : float;
  boot_s : float;
}

(* Only whether an option is on matters here: every non-boolean value
   hashes alike. *)
let config_hash t config =
  Shapes.config_hash ~seed:t.seed ~salt:99
    (function
      | Param.Vbool b -> if b then 1 else 0 | Param.Vtristate _ | Param.Vint _ | Param.Vcat _ -> 2)
    config

let memory_of t config =
  let acc = ref t.base_mb in
  Array.iteri
    (fun i v ->
      match v with
      | Param.Vbool true -> acc := !acc +. t.cost_mb.(i)
      | Param.Vbool false | Param.Vtristate _ | Param.Vint _ | Param.Vcat _ -> ())
    config;
  !acc

let evaluate t ?(trial = 0) config =
  (match Space.validate t.space config with
  | [] -> ()
  | (_, msg) :: _ -> invalid_arg ("Sim_riscv.evaluate: invalid configuration: " ^ msg));
  let h = config_hash t config in
  let crash_draw = Rng.create (Shapes.hash_combine h 17) in
  let noise_draw = Rng.create (Shapes.hash_combine h (Shapes.hash_combine 23 trial)) in
  let build_s = 170. +. Rng.uniform noise_draw 0. 70. in
  let boot_s = 28. +. Rng.uniform noise_draw 0. 10. in
  (* Disabling an essential option breaks the boot (sometimes the build). *)
  let broken = ref None in
  Array.iteri
    (fun i v ->
      if !broken = None && t.essential.(i) then
        match v with
        | Param.Vbool false ->
          if Rng.bernoulli crash_draw 0.75 then
            broken := Some (if Rng.bernoulli crash_draw 0.2 then `Build_failure else `Boot_failure)
        | Param.Vbool true | Param.Vtristate _ | Param.Vint _ | Param.Vcat _ -> ())
    config;
  match !broken with
  | Some `Build_failure -> { result = Error `Build_failure; build_s; boot_s = 0. }
  | Some `Boot_failure -> { result = Error `Boot_failure; build_s; boot_s }
  | None ->
    (* Memory is deterministic up to allocator jitter. *)
    let noise = Rng.uniform noise_draw (-0.4) 0.4 in
    { result = Ok (memory_of t config +. noise); build_s; boot_s }

let default_memory_mb t = memory_of t (Space.defaults t.space)

let min_reachable_mb t =
  let config = Space.defaults t.space in
  let trimmed =
    Array.mapi
      (fun i v ->
        match v with
        | Param.Vbool true when not t.essential.(i) -> Param.Vbool false
        | Param.Vbool _ | Param.Vtristate _ | Param.Vint _ | Param.Vcat _ -> v)
      config
  in
  memory_of t trimmed
