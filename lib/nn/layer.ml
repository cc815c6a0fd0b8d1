module Mat = Wayfinder_tensor.Mat
module Rng = Wayfinder_tensor.Rng

type tensor = { value : Mat.t; grad : Mat.t }

let tensor_zeros rows cols = { value = Mat.zeros rows cols; grad = Mat.zeros rows cols }

let zero_grad t = Mat.fill t.grad 0.

module Dense = struct
  type t = {
    w : tensor;  (* in_dim × out_dim *)
    b : tensor;  (* 1 × out_dim *)
    mutable last_input : Mat.t option;
  }

  let create rng ~in_dim ~out_dim =
    let scale = sqrt (2. /. float_of_int in_dim) in
    let w = tensor_zeros in_dim out_dim in
    for i = 0 to Mat.numel w.value - 1 do
      Mat.set_flat w.value i (Rng.normal rng ~sigma:scale ())
    done;
    { w; b = tensor_zeros 1 out_dim; last_input = None }


  let forward t x =
    t.last_input <- Some x;
    let y = Mat.matmul x t.w.value in
    let n = y.Mat.cols in
    let yd : Mat.buffer = y.Mat.data and bd : Mat.buffer = t.b.value.Mat.data in
    for i = 0 to y.Mat.rows - 1 do
      for j = 0 to n - 1 do
        let p = (i * n) + j in
        Bigarray.Array1.unsafe_set yd p
          (Bigarray.Array1.unsafe_get yd p +. Bigarray.Array1.unsafe_get bd j)
      done
    done;
    y

  (* dW += xᵀ · dy ; db += column sums of dy (rows ascending). *)
  let accumulate t dy =
    let x =
      match t.last_input with
      | Some x -> x
      | None -> invalid_arg "Dense.backward: no forward pass recorded"
    in
    Mat.add_into ~dst:t.w.grad (Mat.matmul_tn x dy);
    let m = dy.Mat.rows and n = dy.Mat.cols in
    let dyd : Mat.buffer = dy.Mat.data and gd : Mat.buffer = t.b.grad.Mat.data in
    for j = 0 to n - 1 do
      let acc = ref 0. in
      for i = 0 to m - 1 do
        acc := !acc +. Bigarray.Array1.unsafe_get dyd ((i * n) + j)
      done;
      Bigarray.Array1.unsafe_set gd j (Bigarray.Array1.unsafe_get gd j +. !acc)
    done

  (* dX = dy · Wᵀ *)
  let backward t dy =
    accumulate t dy;
    Mat.matmul_nt dy t.w.value

  let params t = [ t.w; t.b ]

  let copy t =
    { w = { value = Mat.copy t.w.value; grad = Mat.zeros t.w.value.Mat.rows t.w.value.Mat.cols };
      b = { value = Mat.copy t.b.value; grad = Mat.zeros 1 t.b.value.Mat.cols };
      last_input = None }

end

module Relu = struct
  type t = { mutable last_input : Mat.t option }

  let create () = { last_input = None }

  let forward t x =
    t.last_input <- Some x;
    let y = Mat.copy x in
    let yd : Mat.buffer = y.Mat.data in
    for i = 0 to Mat.numel y - 1 do
      if not (Bigarray.Array1.unsafe_get yd i > 0.) then Bigarray.Array1.unsafe_set yd i 0.
    done;
    y

  let backward t dy =
    match t.last_input with
    | None -> invalid_arg "Relu.backward: no forward pass recorded"
    | Some x ->
      if x.Mat.rows <> dy.Mat.rows || x.Mat.cols <> dy.Mat.cols then
        invalid_arg "Relu.backward: shape mismatch";
      let dx = Mat.copy dy in
      let xd : Mat.buffer = x.Mat.data and dxd : Mat.buffer = dx.Mat.data in
      for i = 0 to Mat.numel dx - 1 do
        if not (Bigarray.Array1.unsafe_get xd i > 0.) then Bigarray.Array1.unsafe_set dxd i 0.
      done;
      dx
end

module Dropout = struct
  type t = { rate : float; mutable mask : Mat.t option }

  let create ~rate =
    if rate < 0. || rate >= 1. then invalid_arg "Dropout.create: rate must be in [0, 1)";
    { rate; mask = None }

  let rate t = t.rate

  (* out = x ⊙ mask, one Bernoulli draw per element in storage order. *)
  let forward t ?(train = true) rng x =
    if (not train) || t.rate = 0. then begin
      t.mask <- None;
      x
    end
    else begin
      let keep = 1. -. t.rate in
      let scale = 1. /. keep in
      let mask = Mat.zeros x.Mat.rows x.Mat.cols and y = Mat.zeros x.Mat.rows x.Mat.cols in
      let xd : Mat.buffer = x.Mat.data
      and md : Mat.buffer = mask.Mat.data
      and yd : Mat.buffer = y.Mat.data in
      for i = 0 to Mat.numel x - 1 do
        if Rng.bernoulli rng keep then begin
          Bigarray.Array1.unsafe_set md i scale;
          Bigarray.Array1.unsafe_set yd i (Bigarray.Array1.unsafe_get xd i *. scale)
        end
        else Bigarray.Array1.unsafe_set yd i (Bigarray.Array1.unsafe_get xd i *. 0.)
      done;
      t.mask <- Some mask;
      y
    end

  let backward t dy =
    match t.mask with
    | None -> dy
    | Some mask ->
      if mask.Mat.rows <> dy.Mat.rows || mask.Mat.cols <> dy.Mat.cols then
        invalid_arg "Dropout.backward: shape mismatch";
      let dx = Mat.zeros dy.Mat.rows dy.Mat.cols in
      let dyd : Mat.buffer = dy.Mat.data
      and md : Mat.buffer = mask.Mat.data
      and dxd : Mat.buffer = dx.Mat.data in
      for i = 0 to Mat.numel dx - 1 do
        Bigarray.Array1.unsafe_set dxd i
          (Bigarray.Array1.unsafe_get dyd i *. Bigarray.Array1.unsafe_get md i)
      done;
      dx
end

module Rbf = struct
  type t = {
    c : tensor;  (* centroids × in_dim *)
    gamma : float;
    mutable last_input : Mat.t option;
    mutable last_output : Mat.t option;
  }

  let create rng ~in_dim ~centroids ~gamma =
    let c = tensor_zeros centroids in_dim in
    (* Centroids start near the origin of the z-scored feature space. *)
    for i = 0 to Mat.numel c.value - 1 do
      Mat.set_flat c.value i (Rng.normal rng ~sigma:0.5 ())
    done;
    { c; gamma; last_input = None; last_output = None }

  let centroid_count t = t.c.value.Mat.rows
  let centroid_matrix t = t.c.value

  let forward t z =
    let m = centroid_count t in
    let d = t.c.value.Mat.cols in
    if z.Mat.cols <> d then invalid_arg "Rbf.forward: input dimension mismatch";
    let denom = 2. *. t.gamma *. t.gamma in
    let phi = Mat.zeros z.Mat.rows m in
    let zd : Mat.buffer = z.Mat.data
    and cd : Mat.buffer = t.c.value.Mat.data
    and pd : Mat.buffer = phi.Mat.data in
    for i = 0 to z.Mat.rows - 1 do
      for k = 0 to m - 1 do
        let acc = ref 0. in
        for j = 0 to d - 1 do
          let delta =
            Bigarray.Array1.unsafe_get zd ((i * d) + j)
            -. Bigarray.Array1.unsafe_get cd ((k * d) + j)
          in
          acc := !acc +. (delta *. delta)
        done;
        Bigarray.Array1.unsafe_set pd ((i * m) + k) (exp (-. !acc /. denom))
      done
    done;
    t.last_input <- Some z;
    t.last_output <- Some phi;
    phi

  let backward t dphi =
    let z, phi =
      match (t.last_input, t.last_output) with
      | Some z, Some phi -> (z, phi)
      | _, _ -> invalid_arg "Rbf.backward: no forward pass recorded"
    in
    let m = centroid_count t in
    let d = t.c.value.Mat.cols in
    let inv_gamma2 = 1. /. (t.gamma *. t.gamma) in
    let dz = Mat.zeros z.Mat.rows d in
    (* dφ/dc_k = φ · (z - c_k)/γ² ; dφ/dz = -φ · (z - c_k)/γ² *)
    for i = 0 to z.Mat.rows - 1 do
      for k = 0 to m - 1 do
        let coeff = Mat.get dphi i k *. Mat.get phi i k *. inv_gamma2 in
        if coeff <> 0. then
          for j = 0 to d - 1 do
            let delta = Mat.get z i j -. Mat.get t.c.value k j in
            Mat.set t.c.grad k j (Mat.get t.c.grad k j +. (coeff *. delta));
            Mat.set dz i j (Mat.get dz i j -. (coeff *. delta))
          done
      done
    done;
    dz

  let params t = [ t.c ]
end
