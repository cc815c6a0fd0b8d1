module Vec = Wayfinder_tensor.Vec
module Mat = Wayfinder_tensor.Mat

type t =
  | Squared_exponential of { lengthscale : float; variance : float }
  | Matern52 of { lengthscale : float; variance : float }

let default = Squared_exponential { lengthscale = 1.; variance = 1. }

(* The kernel as a function of the squared distance of its inputs: the
   one scalar formula behind [eval], [cross_into] and [gram]. *)
let of_sq_dist k r2 =
  match k with
  | Squared_exponential { lengthscale; variance } ->
    variance *. exp (-.r2 /. (2. *. lengthscale *. lengthscale))
  | Matern52 { lengthscale; variance } ->
    let r = sqrt r2 /. lengthscale in
    let c = sqrt 5. *. r in
    variance *. (1. +. c +. (5. *. r *. r /. 3.)) *. exp (-.c)

let eval k a b = of_sq_dist k (Vec.sq_dist a b)

(* Rows go four at a time: each squared distance still sums over c in
   ascending order, as in [Vec.sq_dist], but four independent sums share
   each load of q(c).  Block rows past the end repeat the last row. *)
let cross_into k x q v =
  let n = Array.length v and d = x.Mat.cols and xd = x.Mat.data in
  if n > x.Mat.rows || Array.length q <> d then
    invalid_arg "Kernel.cross_into: dimension mismatch";
  for b = 0 to ((n + 3) / 4) - 1 do
    let row s = Int.min ((4 * b) + s) (n - 1) in
    let x0 = row 0 * d and x1 = row 1 * d and x2 = row 2 * d and x3 = row 3 * d in
    let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
    for c = 0 to d - 1 do
      let open Bigarray.Array1 in
      let qc = Array.unsafe_get q c in
      let e0 = unsafe_get xd (x0 + c) -. qc and e1 = unsafe_get xd (x1 + c) -. qc in
      let e2 = unsafe_get xd (x2 + c) -. qc and e3 = unsafe_get xd (x3 + c) -. qc in
      s0 := !s0 +. (e0 *. e0);
      s1 := !s1 +. (e1 *. e1);
      s2 := !s2 +. (e2 *. e2);
      s3 := !s3 +. (e3 *. e3)
    done;
    v.(row 0) <- of_sq_dist k !s0;
    v.(row 1) <- of_sq_dist k !s1;
    v.(row 2) <- of_sq_dist k !s2;
    v.(row 3) <- of_sq_dist k !s3
  done

let gram k x =
  let n = x.Mat.rows in
  let out = Mat.zeros n n in
  for i = 0 to n - 1 do
    let v = Array.make (i + 1) 0. in
    cross_into k x (Mat.row x i) v;
    for j = 0 to i do
      Mat.set out i j v.(j);
      Mat.set out j i v.(j)
    done
  done;
  out
