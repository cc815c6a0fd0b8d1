module Vec = Wayfinder_tensor.Vec

(* How an integer parameter's value maps into [0, 1]: [Flat] sends every
   value to ½.  The log10 of a log-scaled parameter's bounds are
   constants of the parameter, taken once per encoding. *)
type int_scale = Flat | Linear | Log of { l_lo : float; denom : float }

type t = {
  space : Space.t;
  owners : int array;  (* per feature: the parameter it encodes *)
  offsets : int array;
  scales : int_scale array;  (* per parameter; [Linear] for non-integers *)
}

let int_scale (p : Param.t) =
  match p.Param.kind with
  | Param.Kint { lo; hi; log_scale } ->
    if hi = lo then Flat
    else if log_scale && lo >= 0 then begin
      let l v = log10 (float_of_int (max 1 v)) in
      let l_lo = l lo in
      let denom = l hi -. l_lo in
      if denom <= 0. then Flat else Log { l_lo; denom }
    end
    else Linear
  | Param.Kbool | Param.Ktristate | Param.Kcategorical _ -> Linear

let features_of_param i (p : Param.t) =
  match p.Param.kind with
  | Param.Kbool | Param.Ktristate | Param.Kint _ -> [ i ]
  | Param.Kcategorical choices -> List.init (Array.length choices) (fun _ -> i)

let create space =
  let params = Space.params space in
  let owners =
    Array.to_list params
    |> List.mapi features_of_param
    |> List.concat
    |> Array.of_list
  in
  (* offsets.(i) = first feature index of parameter i *)
  let offsets = Array.make (Array.length params) 0 in
  let pos = ref 0 in
  Array.iteri
    (fun i p ->
      offsets.(i) <- !pos;
      pos :=
        !pos
        + (match p.Param.kind with
          | Param.Kbool | Param.Ktristate | Param.Kint _ -> 1
          | Param.Kcategorical choices -> Array.length choices))
    params;
  { space; owners; offsets; scales = Array.map int_scale params }

let dim t = Array.length t.owners

let encode_value (p : Param.t) scale v out pos =
  match (p.Param.kind, v) with
  | Param.Kbool, Param.Vbool b -> out.(pos) <- (if b then 1. else 0.)
  | Param.Ktristate, Param.Vtristate x -> out.(pos) <- float_of_int x /. 2.
  | Param.Kint { lo; hi; _ }, Param.Vint i ->
    out.(pos) <-
      (match scale with
      | Flat -> 0.5
      | Log { l_lo; denom } -> (log10 (float_of_int (max 1 i)) -. l_lo) /. denom
      | Linear -> float_of_int (i - lo) /. float_of_int (hi - lo))
  | Param.Kcategorical choices, Param.Vcat c ->
    for k = 0 to Array.length choices - 1 do
      out.(pos + k) <- (if k = c then 1. else 0.)
    done
  | (Param.Kbool | Param.Ktristate | Param.Kint _ | Param.Kcategorical _), _ ->
    invalid_arg (Printf.sprintf "Encoding.encode: kind mismatch for %s" p.Param.name)

(* Every feature belongs to exactly one parameter, which writes it, so
   no element of [out] keeps what it held before. *)
let encode_into t config out =
  if Array.length config <> Space.size t.space then
    invalid_arg "Encoding.encode: configuration size mismatch";
  if Array.length out <> dim t then invalid_arg "Encoding.encode_into: buffer size mismatch";
  Array.iteri
    (fun i v -> encode_value (Space.param t.space i) t.scales.(i) v out t.offsets.(i))
    config

let encode t config =
  let out = Vec.zeros (dim t) in
  encode_into t config out;
  out

let param_importance t scores =
  if Array.length scores <> dim t then
    invalid_arg "Encoding.param_importance: score length mismatch";
  let n = Space.size t.space in
  let acc = Array.make n 0. in
  Array.iteri (fun j owner -> acc.(owner) <- acc.(owner) +. scores.(j)) t.owners;
  let named = Array.mapi (fun i s -> ((Space.param t.space i).Param.name, s)) acc in
  Array.sort (fun (_, a) (_, b) -> compare b a) named;
  named

let distance t a b = Vec.dist (encode t a) (encode t b)
