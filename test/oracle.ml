(* The tensor, layer and scoring kernels as they were before they indexed
   Mat storage directly: checked access, copies, closures and the
   textbook loops.  The kernels that replaced them must match these bit
   for bit ([Int64.bits_of_float]), so the qcheck properties in
   test_tensor, test_nn and test_deeptune compare against this module.
   The CRC-32 fold over boxed [Int32] values and the string-building
   [hash_combine] are here too, for test_durable's and test_simos's
   properties. *)

module Mat = Wayfinder_tensor.Mat
module Vec = Wayfinder_tensor.Vec
module Rng = Wayfinder_tensor.Rng

let bits = Int64.bits_of_float

let same_bits a b =
  a.Mat.rows = b.Mat.rows
  && a.Mat.cols = b.Mat.cols
  && Array.for_all2 (fun x y -> bits x = bits y) (Mat.to_array a) (Mat.to_array b)

let map f m = Mat.of_array m.Mat.rows m.Mat.cols (Array.map f (Mat.to_array m))

let map2 f a b = Mat.of_array a.Mat.rows a.Mat.cols (Array.map2 f (Mat.to_array a) (Mat.to_array b))

let transpose m = Mat.init m.Mat.cols m.Mat.rows (fun i j -> Mat.get m j i)

(* Bᵀ materialized, then each element a dot product over k ascending. *)
let matmul a b =
  let m = a.Mat.rows and n = b.Mat.cols and kd = a.Mat.cols in
  let c = Mat.zeros m n in
  let bt = transpose b in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0. in
      for k = 0 to kd - 1 do
        acc := !acc +. (Mat.get a i k *. Mat.get bt j k)
      done;
      Mat.set c i j !acc
    done
  done;
  c

(* Dense: [x·W + b]; backward returns (dW, db, dX). *)
let dense_forward x w b =
  let y = matmul x w in
  for i = 0 to y.Mat.rows - 1 do
    for j = 0 to y.Mat.cols - 1 do
      Mat.set y i j (Mat.get y i j +. Mat.get b 0 j)
    done
  done;
  y

let dense_backward x w dy =
  let dw = matmul (transpose x) dy in
  let db = Mat.zeros 1 dy.Mat.cols in
  for j = 0 to dy.Mat.cols - 1 do
    let acc = ref 0. in
    for i = 0 to dy.Mat.rows - 1 do
      acc := !acc +. Mat.get dy i j
    done;
    Mat.set db 0 j !acc
  done;
  (dw, db, matmul dy (transpose w))

let relu_forward x = map (fun v -> if v > 0. then v else 0.) x
let relu_backward x dy = map2 (fun xi g -> if xi > 0. then g else 0.) x dy

(* (output, mask) *)
let dropout_forward ~rate rng x =
  let keep = 1. -. rate in
  let mask = map (fun _ -> if Rng.bernoulli rng keep then 1. /. keep else 0.) x in
  (map2 ( *. ) x mask, mask)

let dropout_backward mask dy = map2 ( *. ) dy mask

let rbf_forward ~centroids ~gamma z =
  let m = centroids.Mat.rows and d = centroids.Mat.cols in
  let denom = 2. *. gamma *. gamma in
  let phi = Mat.zeros z.Mat.rows m in
  for i = 0 to z.Mat.rows - 1 do
    for k = 0 to m - 1 do
      let acc = ref 0. in
      for j = 0 to d - 1 do
        let delta = Mat.get z i j -. Mat.get centroids k j in
        acc := !acc +. (delta *. delta)
      done;
      Mat.set phi i k (exp (-. !acc /. denom))
    done
  done;
  phi

let chamfer ~points ~centroids =
  let n = points.Mat.rows and m = centroids.Mat.rows in
  let d = points.Mat.cols in
  let grad = Mat.zeros m d in
  if n = 0 || m = 0 then (0., grad)
  else begin
    let sq_dist i k =
      let acc = ref 0. in
      for j = 0 to d - 1 do
        let delta = Mat.get points i j -. Mat.get centroids k j in
        acc := !acc +. (delta *. delta)
      done;
      !acc
    in
    let loss = ref 0. in
    let scale_p = 1. /. float_of_int n in
    for i = 0 to n - 1 do
      let best = ref 0 and best_d = ref (sq_dist i 0) in
      for k = 1 to m - 1 do
        let dk = sq_dist i k in
        if dk < !best_d then begin
          best := k;
          best_d := dk
        end
      done;
      loss := !loss +. (!best_d *. scale_p);
      for j = 0 to d - 1 do
        let delta = Mat.get centroids !best j -. Mat.get points i j in
        Mat.set grad !best j (Mat.get grad !best j +. (2. *. delta *. scale_p))
      done
    done;
    let scale_c = 1. /. float_of_int m in
    for k = 0 to m - 1 do
      let best = ref 0 and best_d = ref (sq_dist 0 k) in
      for i = 1 to n - 1 do
        let di = sq_dist i k in
        if di < !best_d then begin
          best := i;
          best_d := di
        end
      done;
      loss := !loss +. (!best_d *. scale_c);
      for j = 0 to d - 1 do
        let delta = Mat.get centroids k j -. Mat.get points !best j in
        Mat.set grad k j (Mat.get grad k j +. (2. *. delta *. scale_c))
      done
    done;
    (!loss, grad)
  end

let dissimilarity x known =
  match known with
  | [] -> 1.
  | _ :: _ ->
    let nearest =
      List.fold_left (fun acc k -> Stdlib.min acc (Vec.sq_dist x k)) infinity known
    in
    1. -. (1. /. (1. +. nearest))

(* Seeded test values over many magnitudes, so a reordered sum rounds
   differently; with [~special:true] one in sixteen is a signed zero or a
   non-finite value, which the comparisons have to keep. *)
let value ?(special = false) rng =
  if special && Rng.int rng 16 = 0 then
    [| 0.; -0.; nan; infinity; neg_infinity |].(Rng.int rng 5)
  else Rng.uniform rng (-1.) 1. *. (10. ** float_of_int (Rng.int rng 7 - 3))

let random_mat ?special rng rows cols = Mat.init rows cols (fun _ _ -> value ?special rng)

(* CRC-32 as [Crc32.update] computed it on [Int32] values. *)
let crc32_table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref (Int32.of_int i) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32_update state s =
  let table = Lazy.force crc32_table in
  let crc = ref state in
  String.iter
    (fun ch ->
      let idx = Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code ch))) 0xFFl) in
      crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8))
    s;
  !crc

(* [Shapes.hash_combine] as it was: FNV-1a over the joined decimal text. *)
let hash_combine a b =
  Wayfinder_simos.Shapes.hash_string (string_of_int a ^ ":" ^ string_of_int b)
