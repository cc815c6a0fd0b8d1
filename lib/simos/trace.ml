module Rng = Wayfinder_tensor.Rng

type t = { window_s : float; loads : float array }

let version = 1

let duration_s t = t.window_s *. float_of_int (Array.length t.loads)

let float_ok v = Float.is_finite v && v >= 0.

let validate t =
  if not (Float.is_finite t.window_s && t.window_s > 0.) then
    Error (Printf.sprintf "trace window_s must be finite and positive (got %g)" t.window_s)
  else
    match
      Array.to_seqi t.loads
      |> Seq.find (fun (_, l) -> not (float_ok l))
    with
    | Some (i, l) ->
      Error (Printf.sprintf "trace load %d must be finite and non-negative (got %g)" i l)
    | None -> Ok ()

let float_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let equal a b =
  float_eq a.window_s b.window_s
  && Array.length a.loads = Array.length b.loads
  && Array.for_all2 float_eq a.loads b.loads

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

(* [%h] round-trips every float exactly; decimal formats would lose
   bits. *)
let float_field = Wayfinder_configspace.Param.float_field

let to_string t =
  let buf = Buffer.create (64 + (24 * Array.length t.loads)) in
  Buffer.add_string buf (Printf.sprintf "wayfinder-trace %d\n" version);
  Buffer.add_string buf (Printf.sprintf "window %s\n" (float_field t.window_s));
  Array.iter
    (fun l -> Buffer.add_string buf (Printf.sprintf "load %s\n" (float_field l)))
    t.loads;
  Buffer.contents buf

let parse_float what s =
  Result.map_error
    (fun _ -> Printf.sprintf "trace: malformed %s %S" what s)
    (Wayfinder_configspace.Param.float_of_field s)

let ( let* ) = Result.bind

let of_string s =
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "trace: empty input"
  | header :: rest ->
    let* () =
      match String.split_on_char ' ' header with
      | [ "wayfinder-trace"; v ] -> (
        match int_of_string_opt v with
        | Some v when v = version -> Ok ()
        | Some v ->
          Error
            (Printf.sprintf "trace: unsupported version %d (this build reads version %d)" v
               version)
        | None -> Error (Printf.sprintf "trace: malformed version %S" v))
      | _ -> Error "trace: missing wayfinder-trace header"
    in
    let* window_s, load_lines =
      match rest with
      | first :: more -> (
        match String.split_on_char ' ' first with
        | [ "window"; v ] ->
          let* w = parse_float "window" v in
          Ok (w, more)
        | _ -> Error "trace: expected a window line after the header"
      )
      | [] -> Error "trace: expected a window line after the header"
    in
    let* loads =
      List.fold_left
        (fun acc line ->
          let* acc = acc in
          match String.split_on_char ' ' line with
          | [ "load"; v ] ->
            let* l = parse_float "load" v in
            Ok (l :: acc)
          | _ -> Error (Printf.sprintf "trace: unexpected line %S" line))
        (Ok []) load_lines
    in
    let t = { window_s; loads = Array.of_list (List.rev loads) } in
    let* () = validate t in
    Ok t

let save ~path t =
  match Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_string t)) with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let built name t =
  match validate t with
  | Ok () -> t
  | Error msg -> invalid_arg (Printf.sprintf "Trace.%s: %s" name msg)

let constant ~window_s ~windows load =
  if windows < 0 then invalid_arg "Trace.constant: negative window count";
  built "constant" { window_s; loads = Array.make windows load }

let diurnal ?(jitter = 0.) ?(seed = 0) ~window_s ~windows ~base ~peak () =
  if windows < 0 then invalid_arg "Trace.diurnal: negative window count";
  if jitter < 0. || jitter > 1. then invalid_arg "Trace.diurnal: jitter must be in [0, 1]";
  let rng = Rng.create seed in
  let loads =
    Array.init windows (fun i ->
        (* Trough at both ends, crest halfway: one "day" per trace. *)
        let phase =
          if windows <= 1 then 0.5 else float_of_int i /. float_of_int (windows - 1)
        in
        let shape = 0.5 *. (1. -. cos (2. *. Float.pi *. phase)) in
        let load = base +. ((peak -. base) *. shape) in
        let noise = if jitter = 0. then 1. else Rng.uniform rng (1. -. jitter) (1. +. jitter) in
        Float.max 0. (load *. noise))
  in
  built "diurnal" { window_s; loads }

let flash_crowd ~window_s ~windows ~base ~peak ~at ~width =
  if windows < 0 then invalid_arg "Trace.flash_crowd: negative window count";
  if width < 0 then invalid_arg "Trace.flash_crowd: negative width";
  let loads =
    Array.init windows (fun i -> if i >= at && i < at + width then peak else base)
  in
  built "flash_crowd" { window_s; loads }

let ramp ~window_s ~windows ~from_load ~to_load =
  if windows < 0 then invalid_arg "Trace.ramp: negative window count";
  let loads =
    Array.init windows (fun i ->
        let phase =
          if windows <= 1 then 0. else float_of_int i /. float_of_int (windows - 1)
        in
        from_load +. ((to_load -. from_load) *. phase))
  in
  built "ramp" { window_s; loads }

let steps ~window_s phases =
  let loads =
    List.concat_map
      (fun (windows, load) ->
        if windows < 0 then invalid_arg "Trace.steps: negative window count";
        List.init windows (fun _ -> load))
      phases
  in
  built "steps" { window_s; loads = Array.of_list loads }
