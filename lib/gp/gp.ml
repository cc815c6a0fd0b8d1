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

let fit ?(noise = 1e-4) ?gram kernel x y =
  let n = x.Mat.rows in
  if n = 0 then invalid_arg "Gp.fit: no data";
  if n <> Array.length y then invalid_arg "Gp.fit: row/target count mismatch";
  let gram =
    match gram with
    | None -> Kernel.gram kernel x
    | Some g when g.Mat.rows = n && g.Mat.cols = n -> g
    | Some _ -> invalid_arg "Gp.fit: Gram matrix is not n × n"
  in
  (* The factorization stays a full O(n³) refit at every call. *)
  let chol = Mat.cholesky (Mat.add_jitter gram noise) in
  let alpha = Mat.cholesky_solve chol y in
  { kernel; x; y; noise; chol; alpha }

let size t = t.x.Mat.rows

(* Candidates go two at a time: one pass over the training rows gives
   both cross-kernel vectors and one forward substitution solves both,
   so each load of a training row or of L serves two candidates.  A lone
   last candidate is its own pair.  Each candidate's sums keep the
   textbook order, so its posterior does not depend on its partner. *)
let predict_batch t qs =
  let p = Array.length qs and n = size t in
  let out = Array.make p (0., 0.) in
  let k0 = Array.make n 0. and k1 = Array.make n 0. in
  let posterior q k v =
    let mean = Vec.dot k t.alpha in
    (* var = k(q,q) + noise - k*ᵀ (K+noise I)⁻¹ k*  via v = L⁻¹ k* *)
    let var = Kernel.eval t.kernel q q +. t.noise -. Vec.dot v v in
    (mean, max 0. var)
  in
  for pair = 0 to ((p + 1) / 2) - 1 do
    let i = 2 * pair in
    let i' = Int.min (i + 1) (p - 1) in
    Kernel.cross2_into t.kernel t.x qs.(i) qs.(i') k0 k1;
    let v0, v1 = Mat.solve_lower2 t.chol k0 k1 in
    out.(i) <- posterior qs.(i) k0 v0;
    out.(i') <- posterior qs.(i') k1 v1
  done;
  out

let predict t q = (predict_batch t [| q |]).(0)

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

let improvement ~best (mean, var) =
  let sigma = sqrt var in
  if sigma < 1e-12 then 0.
  else begin
    let z = (mean -. best) /. sigma in
    ((mean -. best) *. std_normal_cdf z) +. (sigma *. std_normal_pdf z)
  end

let expected_improvement_batch t ~best qs = Array.map (improvement ~best) (predict_batch t qs)
let expected_improvement t ~best q = (expected_improvement_batch t ~best [| q |]).(0)
