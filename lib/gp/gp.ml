module Vec = Wayfinder_tensor.Vec
module Mat = Wayfinder_tensor.Mat

type t = {
  kernel : Kernel.t;
  x : Mat.t;
  y : Vec.t;
  noise : float;
  chol : Mat.t;  (* lower Cholesky factor of K + noise·I *)
  alpha : Vec.t;  (* (K + noise·I)⁻¹ y *)
}

let fit ?(noise = 1e-4) kernel x y =
  if x.Mat.rows = 0 then invalid_arg "Gp.fit: no data";
  if x.Mat.rows <> Array.length y then invalid_arg "Gp.fit: row/target count mismatch";
  let gram = Mat.add_jitter (Kernel.gram kernel x) noise in
  let chol = Mat.cholesky gram in
  let alpha = Mat.cholesky_solve chol y in
  { kernel; x; y; noise; chol; alpha }

let size t = t.x.Mat.rows

let predict t q =
  let k_star = Array.make (size t) 0. in
  Kernel.cross_into t.kernel t.x q k_star;
  let mean = Vec.dot k_star t.alpha in
  (* var = k(q,q) + noise - k*ᵀ (K+noise I)⁻¹ k*  via v = L⁻¹ k* *)
  let v = Mat.solve_lower t.chol k_star in
  let k_qq = Kernel.eval t.kernel q q in
  let var = k_qq +. t.noise -. Vec.dot v v in
  (mean, max 0. var)

let predict_batch t qs = Array.map (predict t) qs

let default_lengthscale_grid = [ 0.25; 0.5; 1.0; 1.5; 2.5; 4.0 ]

let log_marginal_likelihood t =
  let n = float_of_int (size t) in
  let data_fit = -0.5 *. Vec.dot t.y t.alpha in
  let complexity = -0.5 *. Mat.log_det_from_cholesky t.chol in
  let norm = -0.5 *. n *. log (2. *. Float.pi) in
  data_fit +. complexity +. norm

let fit_auto ?noise ?(lengthscales = default_lengthscale_grid) x y =
  match lengthscales with
  | [] -> invalid_arg "Gp.fit_auto: empty lengthscale grid"
  | first :: rest ->
    let model_for l = fit ?noise (Kernel.Squared_exponential { lengthscale = l; variance = 1. }) x y in
    List.fold_left
      (fun best l ->
        let candidate = model_for l in
        if log_marginal_likelihood candidate > log_marginal_likelihood best then candidate
        else best)
      (model_for first) rest

let std_normal_pdf x = exp (-0.5 *. x *. x) /. sqrt (2. *. Float.pi)

(* Abramowitz & Stegun 7.1.26 rational erf approximation. *)
let erf x =
  let sign = if x < 0. then -1. else 1. in
  let x = abs_float x in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  let poly =
    t
    *. (0.254829592
       +. (t *. (-0.284496736 +. (t *. (1.421413741 +. (t *. (-1.453152027 +. (t *. 1.061405429))))))))
  in
  sign *. (1. -. (poly *. exp (-.x *. x)))

let std_normal_cdf x = 0.5 *. (1. +. erf (x /. sqrt 2.))

let expected_improvement t ~best q =
  let mean, var = predict t q in
  let sigma = sqrt var in
  if sigma < 1e-12 then 0.
  else begin
    let z = (mean -. best) /. sigma in
    ((mean -. best) *. std_normal_cdf z) +. (sigma *. std_normal_pdf z)
  end

let expected_improvement_batch t ~best qs = Array.map (expected_improvement t ~best) qs
