module Mat = Wayfinder_tensor.Mat
module Vec = Wayfinder_tensor.Vec

let sigmoid x = if x >= 0. then 1. /. (1. +. exp (-.x)) else exp x /. (1. +. exp x)

let bce_with_logits ?(pos_weight = 1.) ~logits ~targets () =
  let n = Array.length logits in
  if Array.length targets <> n then invalid_arg "Loss.bce_with_logits: length mismatch";
  if n = 0 then (0., [||])
  else begin
    let loss = ref 0. in
    let grad = Array.make n 0. in
    for i = 0 to n - 1 do
      let x = logits.(i) and y = targets.(i) in
      (* Per-sample weight: positives (crashes) count [pos_weight] times,
         biasing the classifier towards recall on failures. *)
      let w = 1. +. ((pos_weight -. 1.) *. y) in
      (* log(1 + e^x) computed stably. *)
      let softplus = if x > 0. then x +. log1p (exp (-.x)) else log1p (exp x) in
      loss := !loss +. (w *. (softplus -. (y *. x)));
      grad.(i) <- w *. (sigmoid x -. y) /. float_of_int n
    done;
    (!loss /. float_of_int n, grad)
  end

let heteroscedastic ~mu ~log_var ~targets ~mask =
  let n = Array.length mu in
  if Array.length log_var <> n || Array.length targets <> n || Array.length mask <> n then
    invalid_arg "Loss.heteroscedastic: length mismatch";
  let active = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mask in
  let dmu = Array.make n 0. and ds = Array.make n 0. in
  if active = 0 then (0., (dmu, ds))
  else begin
    let scale = 1. /. float_of_int active in
    let loss = ref 0. in
    for i = 0 to n - 1 do
      if mask.(i) then begin
        let err = targets.(i) -. mu.(i) in
        let precision = exp (-.log_var.(i)) in
        loss := !loss +. (0.5 *. precision *. err *. err) +. (0.5 *. log_var.(i));
        dmu.(i) <- -.(precision *. err) *. scale;
        ds.(i) <- 0.5 *. (1. -. (precision *. err *. err)) *. scale
      end
    done;
    (!loss *. scale, (dmu, ds))
  end

(* Each squared distance is computed once, its sum over j ascending, and
   read by both directions; ties keep the lowest index. *)
let chamfer ~points ~centroids =
  let n = points.Mat.rows and m = centroids.Mat.rows in
  let d = points.Mat.cols in
  if centroids.Mat.cols <> d then invalid_arg "Loss.chamfer: dimension mismatch";
  let grad = Mat.zeros m d in
  if n = 0 || m = 0 then (0., grad)
  else begin
    let open Bigarray.Array1 in
    let pd : Mat.buffer = points.Mat.data
    and cd : Mat.buffer = centroids.Mat.data
    and gd : Mat.buffer = grad.Mat.data in
    (* dist.(i*m + k) = ‖p_i − c_k‖² *)
    let dist = Array.make (n * m) 0. in
    for i = 0 to n - 1 do
      for k = 0 to m - 1 do
        let acc = ref 0. in
        for j = 0 to d - 1 do
          let delta = unsafe_get pd ((i * d) + j) -. unsafe_get cd ((k * d) + j) in
          acc := !acc +. (delta *. delta)
        done;
        dist.((i * m) + k) <- !acc
      done
    done;
    (* Points → nearest centroid. *)
    let loss = ref 0. in
    let scale_p = 1. /. float_of_int n in
    for i = 0 to n - 1 do
      let best = ref 0 and best_d = ref dist.(i * m) in
      for k = 1 to m - 1 do
        let dk = dist.((i * m) + k) in
        if dk < !best_d then begin
          best := k;
          best_d := dk
        end
      done;
      loss := !loss +. (!best_d *. scale_p);
      for j = 0 to d - 1 do
        let g = (!best * d) + j in
        let delta = unsafe_get cd g -. unsafe_get pd ((i * d) + j) in
        unsafe_set gd g (unsafe_get gd g +. (2. *. delta *. scale_p))
      done
    done;
    (* Centroids → nearest point. *)
    let scale_c = 1. /. float_of_int m in
    for k = 0 to m - 1 do
      let best = ref 0 and best_d = ref dist.(k) in
      for i = 1 to n - 1 do
        let di = dist.((i * m) + k) in
        if di < !best_d then begin
          best := i;
          best_d := di
        end
      done;
      loss := !loss +. (!best_d *. scale_c);
      for j = 0 to d - 1 do
        let g = (k * d) + j in
        let delta = unsafe_get cd g -. unsafe_get pd ((!best * d) + j) in
        unsafe_set gd g (unsafe_get gd g +. (2. *. delta *. scale_c))
      done
    done;
    (!loss, grad)
  end
