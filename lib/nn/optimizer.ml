module Mat = Wayfinder_tensor.Mat

type algorithm =
  | Sgd of { momentum : float; velocity : float array array }
  | Adam of {
      beta1 : float;
      beta2 : float;
      epsilon : float;
      m : float array array;
      v : float array array;
      mutable step_count : int;
    }

type t = {
  lr : float;
  weight_decay : float;
  params : Layer.tensor array;
  algorithm : algorithm;
}

let state_like params = Array.map (fun p -> Array.make (Mat.numel p.Layer.value) 0.) params

let sgd ?(momentum = 0.) ?(weight_decay = 0.) ~lr params =
  let params = Array.of_list params in
  { lr; weight_decay; params; algorithm = Sgd { momentum; velocity = state_like params } }

let adam ?(beta1 = 0.9) ?(beta2 = 0.999) ?(epsilon = 1e-8) ?(weight_decay = 0.) ~lr params =
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
  { lr;
    weight_decay;
    params;
    algorithm = Adam { beta1; beta2; epsilon; m = state_like params; v = state_like params; step_count = 0 } }

let zero_grads t = Array.iter Layer.zero_grad t.params

let step t =
  match t.algorithm with
  | Sgd { momentum; velocity } ->
    Array.iteri
      (fun pi p ->
        let value = p.Layer.value.Mat.data and grad = p.Layer.grad.Mat.data in
        let vel = velocity.(pi) in
        for i = 0 to Mat.numel p.Layer.value - 1 do
          vel.(i) <- (momentum *. vel.(i)) -. (t.lr *. grad.{i});
          value.{i} <- value.{i} +. vel.(i)
        done)
      t.params;
    (* Decoupled weight decay, applied to every parameter. *)
    if t.weight_decay > 0. then
      Array.iter
        (fun p ->
          let value = p.Layer.value.Mat.data in
          for i = 0 to Mat.numel p.Layer.value - 1 do
            value.{i} <- value.{i} *. (1. -. (t.lr *. t.weight_decay))
          done)
        t.params;
    zero_grads t
  | Adam ({ beta1; beta2; epsilon; m; v; _ } as state) ->
    state.step_count <- state.step_count + 1;
    let k = float_of_int state.step_count in
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
      let mp = m.(pi) and vp = v.(pi) in
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

let moments t =
  match t.algorithm with
  | Sgd _ -> [||]
  | Adam { m; v; _ } -> Array.map2 (fun mp vp -> (Array.copy mp, Array.copy vp)) m v
