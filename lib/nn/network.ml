module Mat = Wayfinder_tensor.Mat
module Rng = Wayfinder_tensor.Rng

type spec = [ `Dense of int | `Relu | `Dropout of float ]

type layer =
  | L_dense of Layer.Dense.t
  | L_relu of Layer.Relu.t
  | L_dropout of Layer.Dropout.t

type t = {
  layers : layer array;
  in_dim : int;
  out_dim : int;
  mutable hidden : Mat.t list;  (* dense outputs of the last forward, reversed *)
}

let create rng ~in_dim spec =
  (match spec with
  | [] -> invalid_arg "Network.create: empty spec"
  | `Dense _ :: _ -> ()
  | (`Relu | `Dropout _) :: _ -> invalid_arg "Network.create: first layer must be `Dense");
  let width = ref in_dim in
  let layers =
    List.map
      (fun s ->
        match s with
        | `Dense n ->
          let l = Layer.Dense.create rng ~in_dim:!width ~out_dim:n in
          width := n;
          L_dense l
        | `Relu -> L_relu (Layer.Relu.create ())
        | `Dropout rate -> L_dropout (Layer.Dropout.create ~rate))
      spec
  in
  { layers = Array.of_list layers; in_dim; out_dim = !width; hidden = [] }

let forward t ?(train = true) rng x =
  t.hidden <- [];
  Array.fold_left
    (fun acc layer ->
      match layer with
      | L_dense l ->
        let y = Layer.Dense.forward l acc in
        t.hidden <- y :: t.hidden;
        y
      | L_relu l -> Layer.Relu.forward l acc
      | L_dropout l -> Layer.Dropout.forward l ~train rng acc)
    x t.layers

(* [dy] back through layers [n-1] down to [lo]. *)
let backward_to t lo dy =
  let acc = ref dy in
  for i = Array.length t.layers - 1 downto lo do
    acc :=
      (match t.layers.(i) with
      | L_dense l -> Layer.Dense.backward l !acc
      | L_relu l -> Layer.Relu.backward l !acc
      | L_dropout l -> Layer.Dropout.backward l !acc)
  done;
  !acc

let backward t dy = backward_to t 0 dy

(* Layer 0 is Dense ([create] checks it), so its input gradient is the
   only thing [backward] computes that this skips. *)
let accumulate t dy =
  match t.layers.(0) with
  | L_dense l -> Layer.Dense.accumulate l (backward_to t 1 dy)
  | L_relu _ | L_dropout _ -> assert false

let params t =
  Array.to_list t.layers
  |> List.concat_map (function
       | L_dense l -> Layer.Dense.params l
       | L_relu _ | L_dropout _ -> [])

let copy t =
  { layers =
      Array.map
        (function
          | L_dense l -> L_dense (Layer.Dense.copy l)
          | L_relu _ -> L_relu (Layer.Relu.create ())
          | L_dropout l -> L_dropout (Layer.Dropout.create ~rate:(Layer.Dropout.rate l)))
        t.layers;
    in_dim = t.in_dim;
    out_dim = t.out_dim;
    hidden = [] }

let hidden_after_forward t =
  if t.hidden = [] then invalid_arg "Network.hidden_after_forward: no forward pass recorded";
  List.rev t.hidden

let save_weights t =
  let chunks = List.map (fun p -> Mat.to_array p.Layer.value) (params t) in
  Array.concat chunks

let load_weights t flat =
  let expected = List.fold_left (fun acc p -> acc + Mat.numel p.Layer.value) 0 (params t) in
  if Array.length flat <> expected then
    invalid_arg
      (Printf.sprintf "Network.load_weights: expected %d values, got %d" expected
         (Array.length flat));
  let pos = ref 0 in
  List.iter
    (fun p ->
      let n = Mat.numel p.Layer.value in
      Mat.blit_from_array ~src_pos:!pos flat p.Layer.value;
      pos := !pos + n)
    (params t)
