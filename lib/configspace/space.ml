module Rng = Wayfinder_tensor.Rng
module Kspace = Wayfinder_kconfig.Space
module Kconfig_val = Wayfinder_kconfig.Config
module Tristate = Wayfinder_kconfig.Tristate
module Kast = Wayfinder_kconfig.Ast

type t = {
  params : Param.t array;
  samplers : (Rng.t -> Param.value) array;  (* [Param.sample] of each parameter *)
  index : (string, int) Hashtbl.t;
  fixed : Param.value option array;
  key_prefixes : (int * string) array;
      (* each non-runtime position with its stage-key prefix "i:" (",i:"
         after the first) *)
}

type configuration = Param.value array

let create param_list =
  let params = Array.of_list param_list in
  let index = Hashtbl.create (Array.length params) in
  Array.iteri
    (fun i p ->
      if Hashtbl.mem index p.Param.name then
        invalid_arg (Printf.sprintf "Space.create: duplicate parameter %s" p.Param.name);
      Hashtbl.add index p.Param.name i)
    params;
  let key_prefixes =
    List.init (Array.length params) Fun.id
    |> List.filter (fun i -> params.(i).Param.stage <> Param.Runtime)
    |> List.mapi (fun k i -> (i, (if k = 0 then "" else ",") ^ string_of_int i ^ ":"))
    |> Array.of_list
  in
  { params; samplers = Array.map Param.sample params; index;
    fixed = Array.make (Array.length params) None; key_prefixes }

let size t = Array.length t.params
let params t = Array.copy t.params
let param t i = t.params.(i)

let index_of t name =
  match Hashtbl.find_opt t.index name with Some i -> i | None -> raise Not_found

let mem t name = Hashtbl.mem t.index name

let log10_cardinality t =
  let acc = ref 0. in
  Array.iteri
    (fun i p -> if t.fixed.(i) = None then acc := !acc +. log10 (Param.cardinality p.Param.kind))
    t.params;
  !acc

let fix t pins =
  let fixed = Array.copy t.fixed in
  List.iter
    (fun (name, v) ->
      let i = index_of t name in
      if not (Param.value_ok t.params.(i).Param.kind v) then
        invalid_arg (Printf.sprintf "Space.fix: ill-typed value for %s" name);
      fixed.(i) <- Some v)
    pins;
  { t with fixed }

let fixed_value t i = t.fixed.(i)
let defaults t =
  Array.mapi
    (fun i p -> match t.fixed.(i) with Some v -> v | None -> p.Param.default)
    t.params

let validate t config =
  if Array.length config <> Array.length t.params then
    invalid_arg "Space.validate: configuration size mismatch";
  let problems = ref [] in
  Array.iteri
    (fun i p ->
      if not (Param.value_ok p.Param.kind config.(i)) then
        problems := (i, Printf.sprintf "%s: ill-typed or out-of-range value" p.Param.name) :: !problems
      else
        match t.fixed.(i) with
        | Some v when not (Param.value_equal v config.(i)) ->
          problems := (i, Printf.sprintf "%s: fixed parameter was varied" p.Param.name) :: !problems
        | Some _ | None -> ())
    t.params;
  List.rev !problems

let random t rng =
  Array.mapi (fun i draw -> match t.fixed.(i) with Some v -> v | None -> draw rng) t.samplers

let sample_biased t rng ~vary_probability =
  Array.mapi
    (fun i p ->
      match t.fixed.(i) with
      | Some v -> v
      | None ->
        if Rng.bernoulli rng (vary_probability p) then t.samplers.(i) rng else p.Param.default)
    t.params

let favor_stage stage ?(strong = 0.6) ?(weak = 0.05) p =
  if p.Param.stage = stage then strong else weak

let mutate ?only_stage t rng config ~count =
  let fresh = Array.copy config in
  let free = ref [] in
  Array.iteri
    (fun i p ->
      let stage_ok = match only_stage with None -> true | Some st -> p.Param.stage = st in
      if t.fixed.(i) = None && stage_ok then free := i :: !free)
    t.params;
  let free = Array.of_list !free in
  if Array.length free > 0 then
    for _ = 1 to count do
      let i = Rng.choice rng free in
      fresh.(i) <- Param.perturb t.params.(i) rng fresh.(i)
    done;
  fresh

let crossover t rng a b =
  Array.mapi
    (fun i p ->
      ignore p;
      match t.fixed.(i) with
      | Some v -> v
      | None -> if Rng.bool rng then a.(i) else b.(i))
    t.params

let get t config name = config.(index_of t name)

let set t config name v =
  let i = index_of t name in
  if not (Param.value_ok t.params.(i).Param.kind v) then
    invalid_arg (Printf.sprintf "Space.set: ill-typed value for %s" name);
  let fresh = Array.copy config in
  fresh.(i) <- v;
  fresh

let diff t a b =
  let out = ref [] in
  Array.iteri
    (fun i p ->
      if not (Param.value_equal a.(i) b.(i)) then
        out :=
          ( p.Param.name,
            Param.value_to_string p.Param.kind a.(i),
            Param.value_to_string p.Param.kind b.(i) )
          :: !out)
    t.params;
  List.rev !out

let project_stages t ~stages config =
  if Array.length config <> Array.length t.params then
    invalid_arg "Space.project_stages: configuration size mismatch";
  let out = ref [] in
  Array.iteri
    (fun i p -> if List.mem p.Param.stage stages then out := (p.Param.name, config.(i)) :: !out)
    t.params;
  List.rev !out

(* The comma-joined "i:<token>" of every non-runtime position i, in
   order.  Tokens are [Param.value_token]s: their equality is
   [Param.value_equal], categorical values with identical labels
   included. *)
let stage_key t config =
  if Array.length config <> Array.length t.params then
    invalid_arg "Space.stage_key: configuration size mismatch";
  let buf = Buffer.create 256 in
  Array.iter
    (fun (i, prefix) ->
      Buffer.add_string buf prefix;
      Buffer.add_string buf (Param.value_token config.(i)))
    t.key_prefixes;
  Buffer.contents buf

(* Canonical space description: one line per parameter, in positional
   order, covering everything that shapes the search — name, stage, kind
   with full ranges/labels, default, and any pin.  Two spaces produce the
   same text iff a model trained on one is exactly valid on the other, so
   the text (and its CRC) can key a persistent model registry.  Labels
   and names are percent-escaped so the encoding stays injective whatever
   characters they contain. *)
let canonical_escape =
  Param.percent_encode ~plain:(fun c ->
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
      || c = '_' || c = '.' || c = '-' || c = '/' || c = ':')

let canonical_kind = function
  | Param.Kbool -> "bool"
  | Param.Ktristate -> "tristate"
  | Param.Kint { lo; hi; log_scale } ->
    Printf.sprintf "int[%d..%d%s]" lo hi (if log_scale then ",log" else "")
  | Param.Kcategorical labels ->
    Printf.sprintf "cat{%s}"
      (String.concat "," (Array.to_list (Array.map canonical_escape labels)))

let canonical_description t =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf "param %s stage=%s kind=%s default=%s"
           (canonical_escape p.Param.name)
           (Param.stage_to_string p.Param.stage)
           (canonical_kind p.Param.kind)
           (Param.value_token p.Param.default));
      (match t.fixed.(i) with
      | Some v -> Buffer.add_string buf (" pin=" ^ Param.value_token v)
      | None -> ());
      Buffer.add_char buf '\n')
    t.params;
  Buffer.contents buf

let differs_only_in_stage t a b stage =
  let ok = ref true in
  Array.iteri
    (fun i p ->
      if (not (Param.value_equal a.(i) b.(i))) && p.Param.stage <> stage then ok := false)
    t.params;
  !ok

let of_kconfig descriptors =
  List.map
    (fun d ->
      let open Kspace in
      let kind, default =
        match (d.d_type, d.d_default) with
        | Kast.Bool, Kconfig_val.V_tristate v ->
          (Param.Kbool, Param.Vbool (v = Tristate.Y))
        | Kast.Tristate, Kconfig_val.V_tristate v ->
          (Param.Ktristate, Param.Vtristate (Tristate.to_int v))
        | (Kast.Int | Kast.Hex), Kconfig_val.V_int i ->
          let lo, hi = match d.d_range with Some r -> r | None -> (0, max 1 (i * 100)) in
          let log_scale = hi - lo > 1000 in
          (Param.Kint { lo; hi; log_scale }, Param.Vint (max lo (min hi i)))
        | Kast.String, Kconfig_val.V_string s ->
          (Param.Kcategorical [| s |], Param.Vcat 0)
        | _, _ ->
          (* Mismatched default (should not happen); fall back to bool-off. *)
          (Param.Kbool, Param.Vbool false)
      in
      Param.make ~name:d.d_name ~stage:Param.Compile_time ~kind ~default ())
    descriptors
