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
  { lr;
    weight_decay;
    params;
    algorithm = Adam { beta1; beta2; epsilon; m = state_like params; v = state_like params; step_count = 0 } }

let zero_grads t = Array.iter Layer.zero_grad t.params

let step t =
  (match t.algorithm with
  | Sgd { momentum; velocity } ->
    Array.iteri
      (fun pi p ->
        let value = p.Layer.value.Mat.data and grad = p.Layer.grad.Mat.data in
        let vel = velocity.(pi) in
        for i = 0 to Mat.numel p.Layer.value - 1 do
          vel.(i) <- (momentum *. vel.(i)) -. (t.lr *. grad.{i});
          value.{i} <- value.{i} +. vel.(i)
        done)
      t.params
  | Adam ({ beta1; beta2; epsilon; m; v; _ } as state) ->
    state.step_count <- state.step_count + 1;
    let k = float_of_int state.step_count in
    let corr1 = 1. -. (beta1 ** k) and corr2 = 1. -. (beta2 ** k) in
    Array.iteri
      (fun pi p ->
        let value = p.Layer.value.Mat.data and grad = p.Layer.grad.Mat.data in
        let mp = m.(pi) and vp = v.(pi) in
        for i = 0 to Mat.numel p.Layer.value - 1 do
          mp.(i) <- (beta1 *. mp.(i)) +. ((1. -. beta1) *. grad.{i});
          vp.(i) <- (beta2 *. vp.(i)) +. ((1. -. beta2) *. grad.{i} *. grad.{i});
          let m_hat = mp.(i) /. corr1 and v_hat = vp.(i) /. corr2 in
          value.{i} <- value.{i} -. (t.lr *. m_hat /. (sqrt v_hat +. epsilon))
        done)
      t.params);
  (* Decoupled weight decay (AdamW-style), applied to every parameter. *)
  if t.weight_decay > 0. then
    Array.iter
      (fun p ->
        let value = p.Layer.value.Mat.data in
        for i = 0 to Mat.numel p.Layer.value - 1 do
          value.{i} <- value.{i} *. (1. -. (t.lr *. t.weight_decay))
        done)
      t.params;
  zero_grads t
