module Mat = Wayfinder_tensor.Mat

type t = {
  lr : float;
  weight_decay : float;
  params : Layer.tensor array;
  m : float array array;
  v : float array array;
  mutable step_count : int;
}

let beta1 = 0.9
let beta2 = 0.999
let epsilon = 1e-8

let state_like params = Array.map (fun p -> Array.make (Mat.numel p.Layer.value) 0.) params

let adam ?(weight_decay = 0.) ~lr params =
  let params = Array.of_list params in
  (* [step] reads and writes each element once, unchecked: every
     gradient must be its value's size, and no two parameters may share
     a buffer, or one would read a gradient the other already zeroed. *)
  Array.iteri
    (fun i p ->
      if Mat.numel p.Layer.grad <> Mat.numel p.Layer.value then
        invalid_arg "Optimizer.adam: a gradient's size differs from its value's";
      for j = 0 to i - 1 do
        let q = params.(j) in
        if p.Layer.value.Mat.data == q.Layer.value.Mat.data
           || p.Layer.grad.Mat.data == q.Layer.grad.Mat.data
        then invalid_arg "Optimizer.adam: a parameter appears twice"
      done)
    params;
  { lr; weight_decay; params; m = state_like params; v = state_like params; step_count = 0 }

let step t =
  t.step_count <- t.step_count + 1;
  let k = float_of_int t.step_count in
  let corr1 = 1. -. (beta1 ** k) and corr2 = 1. -. (beta2 ** k) in
  let lr = t.lr and b1 = 1. -. beta1 and b2 = 1. -. beta2 in
  (* Decoupled (AdamW-style) weight decay, applied to every parameter. *)
  let decay = t.weight_decay > 0. and keep = 1. -. (t.lr *. t.weight_decay) in
  let open Bigarray.Array1 in
  (* One pass per element: the Adam update, the decay, then the zeroed
     gradient. *)
  for pi = 0 to Array.length t.params - 1 do
    let p = t.params.(pi) in
    let value : Mat.buffer = p.Layer.value.Mat.data in
    let grad : Mat.buffer = p.Layer.grad.Mat.data in
    let mp = t.m.(pi) and vp = t.v.(pi) in
    for i = 0 to Mat.numel p.Layer.value - 1 do
      let g = unsafe_get grad i in
      let mi = (beta1 *. Array.unsafe_get mp i) +. (b1 *. g) in
      let vi = (beta2 *. Array.unsafe_get vp i) +. (b2 *. g *. g) in
      Array.unsafe_set mp i mi;
      Array.unsafe_set vp i vi;
      let x = unsafe_get value i -. (lr *. (mi /. corr1) /. (sqrt (vi /. corr2) +. epsilon)) in
      unsafe_set value i (if decay then x *. keep else x);
      unsafe_set grad i 0.
    done
  done

let moments t = Array.map2 (fun mp vp -> (Array.copy mp, Array.copy vp)) t.m t.v
