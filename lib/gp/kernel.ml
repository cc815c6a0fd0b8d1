module Vec = Wayfinder_tensor.Vec
module Mat = Wayfinder_tensor.Mat

type t =
  | Squared_exponential of { lengthscale : float; variance : float }
  | Matern52 of { lengthscale : float; variance : float }

(* The kernel as a function of the squared distance of its inputs: the
   one scalar formula behind [eval], [cross2_into] and [gram]. *)
let of_sq_dist k r2 =
  match k with
  | Squared_exponential { lengthscale; variance } ->
    variance *. exp (-.r2 /. (2. *. lengthscale *. lengthscale))
  | Matern52 { lengthscale; variance } ->
    let r = sqrt r2 /. lengthscale in
    let c = sqrt 5. *. r in
    variance *. (1. +. c +. (5. *. r *. r /. 3.)) *. exp (-.c)

let eval k a b = of_sq_dist k (Vec.sq_dist a b)

(* Rows go four at a time against both queries: each squared distance
   still sums over c in ascending order, as in [Vec.sq_dist], but eight
   independent sums share each load of x(r,c), q0(c) and q1(c).  Since
   (a - b)² and (b - a)² have the same bits, k(x_r, q) is also k(q, x_r).
   Block rows past the end repeat the last row. *)
let cross2_into k x q0 q1 v0 v1 =
  let n = Array.length v0 and d = x.Mat.cols and xd = x.Mat.data in
  if n > x.Mat.rows || Array.length v1 <> n || Array.length q0 <> d || Array.length q1 <> d then
    invalid_arg "Kernel.cross2_into: dimension mismatch";
  for b = 0 to ((n + 3) / 4) - 1 do
    let row s = Int.min ((4 * b) + s) (n - 1) in
    let x0 = row 0 * d and x1 = row 1 * d and x2 = row 2 * d and x3 = row 3 * d in
    let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
    let t0 = ref 0. and t1 = ref 0. and t2 = ref 0. and t3 = ref 0. in
    for c = 0 to d - 1 do
      let open Bigarray.Array1 in
      let p = Array.unsafe_get q0 c and q = Array.unsafe_get q1 c in
      let r = unsafe_get xd (x0 + c) in
      let e = r -. p and f = r -. q in
      s0 := !s0 +. (e *. e);
      t0 := !t0 +. (f *. f);
      let r = unsafe_get xd (x1 + c) in
      let e = r -. p and f = r -. q in
      s1 := !s1 +. (e *. e);
      t1 := !t1 +. (f *. f);
      let r = unsafe_get xd (x2 + c) in
      let e = r -. p and f = r -. q in
      s2 := !s2 +. (e *. e);
      t2 := !t2 +. (f *. f);
      let r = unsafe_get xd (x3 + c) in
      let e = r -. p and f = r -. q in
      s3 := !s3 +. (e *. e);
      t3 := !t3 +. (f *. f)
    done;
    v0.(row 0) <- of_sq_dist k !s0;
    v0.(row 1) <- of_sq_dist k !s1;
    v0.(row 2) <- of_sq_dist k !s2;
    v0.(row 3) <- of_sq_dist k !s3;
    v1.(row 0) <- of_sq_dist k !t0;
    v1.(row 1) <- of_sq_dist k !t1;
    v1.(row 2) <- of_sq_dist k !t2;
    v1.(row 3) <- of_sq_dist k !t3
  done

(* Rows i and i+1 go as one query pair over rows [0, i+1]; a lone last
   row is its own pair. *)
let gram k x =
  let n = x.Mat.rows in
  let out = Mat.zeros n n in
  for pair = 0 to ((n + 1) / 2) - 1 do
    let i = 2 * pair in
    let i' = Int.min (i + 1) (n - 1) in
    let v0 = Array.make (i' + 1) 0. and v1 = Array.make (i' + 1) 0. in
    cross2_into k x (Mat.row x i) (Mat.row x i') v0 v1;
    for j = 0 to i' do
      Mat.set out i j v0.(j);
      Mat.set out j i v0.(j);
      Mat.set out i' j v1.(j);
      Mat.set out j i' v1.(j)
    done
  done;
  out
