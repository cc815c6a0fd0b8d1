open Wayfinder_nn
module Mat = Wayfinder_tensor.Mat
module Vec = Wayfinder_tensor.Vec
module Rng = Wayfinder_tensor.Rng

let fd_epsilon = 1e-5
let fd_tolerance = 1e-4

(* Central finite difference of [loss_of ()] with respect to one mutable
   cell, used to validate every analytic gradient below. *)
let finite_difference cell loss_of =
  let saved = !cell in
  cell := saved +. fd_epsilon;
  let up = loss_of () in
  cell := saved -. fd_epsilon;
  let down = loss_of () in
  cell := saved;
  (up -. down) /. (2. *. fd_epsilon)

let check_close name expected actual =
  let scale = Stdlib.max 1. (abs_float expected) in
  if abs_float (expected -. actual) /. scale > fd_tolerance then
    Alcotest.failf "%s: finite diff %.8f vs analytic %.8f" name expected actual

(* A cell view into a matrix entry. *)
let mat_cell m idx =
  let get () = m.Mat.data.{idx} in
  let set v = m.Mat.data.{idx} <- v in
  (get, set)

let fd_mat name m grad loss_of =
  Array.iteri
    (fun idx _ ->
      let get, set = mat_cell m idx in
      let cell = ref (get ()) in
      let wrapped () =
        set !cell;
        let l = loss_of () in
        set (get ());
        l
      in
      let fd =
        let saved = !cell in
        cell := saved +. fd_epsilon;
        set !cell;
        let up = loss_of () in
        cell := saved -. fd_epsilon;
        set !cell;
        let down = loss_of () in
        cell := saved;
        set saved;
        ignore wrapped;
        (up -. down) /. (2. *. fd_epsilon)
      in
      check_close (Printf.sprintf "%s[%d]" name idx) fd grad.Mat.data.{idx})
    (Mat.to_array m)

(* ------------------------------------------------------------------ *)
(* Dense layer                                                         *)
(* ------------------------------------------------------------------ *)

let quadratic_loss y =
  (* L = Σ y_ij² ; dL/dy = 2y *)
  Array.fold_left (fun acc v -> acc +. (v *. v)) 0. (Mat.to_array y)

let dquadratic y = Mat.scale 2. y

let test_dense_shapes () =
  let rng = Rng.create 1 in
  let d = Layer.Dense.create rng ~in_dim:3 ~out_dim:5 in
  let x = Mat.init 4 3 (fun i j -> float_of_int ((i * 3) + j) /. 10.) in
  let y = Layer.Dense.forward d x in
  Alcotest.(check int) "rows" 4 y.Mat.rows;
  Alcotest.(check int) "cols" 5 y.Mat.cols;
  let dx = Layer.Dense.backward d (Mat.zeros 4 5) in
  Alcotest.(check int) "dx cols" 3 dx.Mat.cols

let test_dense_gradients () =
  let rng = Rng.create 2 in
  let d = Layer.Dense.create rng ~in_dim:3 ~out_dim:2 in
  let x = Mat.init 5 3 (fun i j -> Float.of_int (i + j) /. 7.) in
  let loss_of () = quadratic_loss (Layer.Dense.forward d x) in
  (* Analytic gradients. *)
  let y = Layer.Dense.forward d x in
  List.iter Layer.zero_grad (Layer.Dense.params d);
  let dx = Layer.Dense.backward d (dquadratic y) in
  (match Layer.Dense.params d with
   | [ w; b ] ->
     fd_mat "dense w" w.Layer.value w.Layer.grad loss_of;
     fd_mat "dense b" b.Layer.value b.Layer.grad loss_of
   | _ -> Alcotest.fail "expected [w; b]");
  (* Check dX with finite differences on the input. *)
  Array.iteri
    (fun idx _ ->
      let fd = finite_difference (ref x.Mat.data.{idx}) (fun () -> loss_of ()) in
      ignore fd)
    [||];
  Array.iteri
    (fun idx _ ->
      let saved = x.Mat.data.{idx} in
      x.Mat.data.{idx} <- saved +. fd_epsilon;
      let up = loss_of () in
      x.Mat.data.{idx} <- saved -. fd_epsilon;
      let down = loss_of () in
      x.Mat.data.{idx} <- saved;
      check_close (Printf.sprintf "dense dx[%d]" idx) ((up -. down) /. (2. *. fd_epsilon))
        dx.Mat.data.{idx})
    (Mat.to_array x)

let test_relu () =
  let r = Layer.Relu.create () in
  let x = Mat.of_rows [| [| -1.; 0.; 2. |] |] in
  let y = Layer.Relu.forward r x in
  Alcotest.(check (array (float 1e-12))) "forward" [| 0.; 0.; 2. |] (Mat.to_array y);
  let dx = Layer.Relu.backward r (Mat.of_rows [| [| 5.; 5.; 5. |] |]) in
  Alcotest.(check (array (float 1e-12))) "backward gates" [| 0.; 0.; 5. |] (Mat.to_array dx)

let test_dropout_train_and_eval () =
  let rng = Rng.create 3 in
  let d = Layer.Dropout.create ~rate:0.5 in
  let x = Mat.create 1 1000 1. in
  let y = Layer.Dropout.forward d rng x in
  let kept = Array.fold_left (fun acc v -> if v > 0. then acc + 1 else acc) 0 (Mat.to_array y) in
  Alcotest.(check bool) "about half kept" true (kept > 400 && kept < 600);
  (* Inverted dropout preserves expectation. *)
  let mean = Array.fold_left ( +. ) 0. (Mat.to_array y) /. 1000. in
  Alcotest.(check bool) "mean near 1" true (abs_float (mean -. 1.) < 0.15);
  let y_eval = Layer.Dropout.forward d ~train:false rng x in
  Alcotest.(check (array (float 1e-12))) "identity at eval" (Mat.to_array x) (Mat.to_array y_eval)

let test_dropout_backward_masks () =
  let rng = Rng.create 4 in
  let d = Layer.Dropout.create ~rate:0.5 in
  let x = Mat.create 1 100 1. in
  let y = Layer.Dropout.forward d rng x in
  let dy = Mat.create 1 100 1. in
  let dx = Layer.Dropout.backward d dy in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-12)) "mask consistent" y.Mat.data.{i} v)
    (Mat.to_array dx)

(* ------------------------------------------------------------------ *)
(* RBF layer                                                           *)
(* ------------------------------------------------------------------ *)

let test_rbf_activation_range () =
  let rng = Rng.create 5 in
  let r = Layer.Rbf.create rng ~in_dim:4 ~centroids:6 ~gamma:0.5 in
  let z = Mat.init 3 4 (fun i j -> Rng.normal rng () +. float_of_int (i * j) /. 10.) in
  let phi = Layer.Rbf.forward r z in
  Array.iter
    (fun v -> Alcotest.(check bool) "phi in (0,1]" true (v > 0. && v <= 1.))
    (Mat.to_array phi)

let test_rbf_peak_at_centroid () =
  let rng = Rng.create 6 in
  let r = Layer.Rbf.create rng ~in_dim:3 ~centroids:2 ~gamma:0.3 in
  let c = Layer.Rbf.centroid_matrix r in
  let z = Mat.of_rows [| Mat.row c 0 |] in
  let phi = Layer.Rbf.forward r z in
  Alcotest.(check (float 1e-9)) "activation 1 at own centroid" 1. (Mat.get phi 0 0)

let test_rbf_gradients () =
  let rng = Rng.create 7 in
  let r = Layer.Rbf.create rng ~in_dim:3 ~centroids:4 ~gamma:0.7 in
  let z = Mat.init 5 3 (fun i j -> Rng.normal rng () /. 2. +. (float_of_int (i + j) /. 10.)) in
  let loss_of () = quadratic_loss (Layer.Rbf.forward r z) in
  let phi = Layer.Rbf.forward r z in
  List.iter Layer.zero_grad (Layer.Rbf.params r);
  let dz = Layer.Rbf.backward r (dquadratic phi) in
  (match Layer.Rbf.params r with
   | [ c ] -> fd_mat "rbf centroids" c.Layer.value c.Layer.grad loss_of
   | _ -> Alcotest.fail "expected [c]");
  Array.iteri
    (fun idx _ ->
      let saved = z.Mat.data.{idx} in
      z.Mat.data.{idx} <- saved +. fd_epsilon;
      let up = loss_of () in
      z.Mat.data.{idx} <- saved -. fd_epsilon;
      let down = loss_of () in
      z.Mat.data.{idx} <- saved;
      check_close (Printf.sprintf "rbf dz[%d]" idx) ((up -. down) /. (2. *. fd_epsilon))
        dz.Mat.data.{idx})
    (Mat.to_array z)

(* ------------------------------------------------------------------ *)
(* Losses                                                              *)
(* ------------------------------------------------------------------ *)

let test_bce_known_values () =
  let loss, grad = Loss.bce_with_logits ~logits:[| 0. |] ~targets:[| 1. |] () in
  Alcotest.(check (float 1e-9)) "loss = ln 2" (log 2.) loss;
  Alcotest.(check (float 1e-9)) "grad = -0.5" (-0.5) grad.(0)

let test_bce_gradient () =
  let logits = [| 0.3; -1.2; 2.5; 0. |] and targets = [| 1.; 0.; 1.; 0. |] in
  let _, grad = Loss.bce_with_logits ~logits ~targets () in
  Array.iteri
    (fun i _ ->
      let saved = logits.(i) in
      logits.(i) <- saved +. fd_epsilon;
      let up, _ = Loss.bce_with_logits ~logits ~targets () in
      logits.(i) <- saved -. fd_epsilon;
      let down, _ = Loss.bce_with_logits ~logits ~targets () in
      logits.(i) <- saved;
      check_close (Printf.sprintf "bce[%d]" i) ((up -. down) /. (2. *. fd_epsilon)) grad.(i))
    logits

let test_bce_extreme_logits_stable () =
  let loss, grad = Loss.bce_with_logits ~logits:[| 500.; -500. |] ~targets:[| 1.; 0. |] () in
  Alcotest.(check bool) "finite loss" true (Float.is_finite loss);
  Array.iter (fun g -> Alcotest.(check bool) "finite grad" true (Float.is_finite g)) grad

let test_heteroscedastic_gradient () =
  let mu = [| 0.5; -0.3; 1.0 |] and log_var = [| 0.1; -0.5; 0.3 |] in
  let targets = [| 1.0; 0.0; 0.5 |] and mask = [| true; true; false |] in
  let _, (dmu, ds) = Loss.heteroscedastic ~mu ~log_var ~targets ~mask in
  Alcotest.(check (float 1e-12)) "masked dmu zero" 0. dmu.(2);
  Alcotest.(check (float 1e-12)) "masked ds zero" 0. ds.(2);
  Array.iteri
    (fun i _ ->
      let saved = mu.(i) in
      mu.(i) <- saved +. fd_epsilon;
      let up, _ = Loss.heteroscedastic ~mu ~log_var ~targets ~mask in
      mu.(i) <- saved -. fd_epsilon;
      let down, _ = Loss.heteroscedastic ~mu ~log_var ~targets ~mask in
      mu.(i) <- saved;
      check_close (Printf.sprintf "dmu[%d]" i) ((up -. down) /. (2. *. fd_epsilon)) dmu.(i))
    mu;
  Array.iteri
    (fun i _ ->
      let saved = log_var.(i) in
      log_var.(i) <- saved +. fd_epsilon;
      let up, _ = Loss.heteroscedastic ~mu ~log_var ~targets ~mask in
      log_var.(i) <- saved -. fd_epsilon;
      let down, _ = Loss.heteroscedastic ~mu ~log_var ~targets ~mask in
      log_var.(i) <- saved;
      check_close (Printf.sprintf "ds[%d]" i) ((up -. down) /. (2. *. fd_epsilon)) ds.(i))
    log_var

let test_heteroscedastic_uncertainty_tradeoff () =
  (* For a fixed error, the loss at the optimal log-variance should be
     lower than at log-variance 0 when the error is large. *)
  let loss_at s =
    let l, _ =
      Loss.heteroscedastic ~mu:[| 0. |] ~log_var:[| s |] ~targets:[| 3. |] ~mask:[| true |]
    in
    l
  in
  let optimal = log 9. in
  Alcotest.(check bool) "optimal log-var beats zero" true (loss_at optimal < loss_at 0.)

let test_chamfer_zero_when_matched () =
  let points = Mat.of_rows [| [| 1.; 2. |]; [| -1.; 0. |] |] in
  let centroids = Mat.copy points in
  let loss, _ = Loss.chamfer ~points ~centroids in
  Alcotest.(check (float 1e-12)) "zero loss" 0. loss

let test_chamfer_gradient () =
  let points = Mat.of_rows [| [| 1.0; 2.0 |]; [| -1.0; 0.5 |]; [| 0.3; -0.7 |] |] in
  let centroids = Mat.of_rows [| [| 0.8; 1.5 |]; [| -0.5; -0.5 |] |] in
  let _, grad = Loss.chamfer ~points ~centroids in
  Array.iteri
    (fun idx _ ->
      let saved = centroids.Mat.data.{idx} in
      centroids.Mat.data.{idx} <- saved +. fd_epsilon;
      let up, _ = Loss.chamfer ~points ~centroids in
      centroids.Mat.data.{idx} <- saved -. fd_epsilon;
      let down, _ = Loss.chamfer ~points ~centroids in
      centroids.Mat.data.{idx} <- saved;
      check_close (Printf.sprintf "chamfer[%d]" idx) ((up -. down) /. (2. *. fd_epsilon))
        grad.Mat.data.{idx})
    (Mat.to_array centroids)

let test_chamfer_pulls_centroids_to_data () =
  let rng = Rng.create 8 in
  (* Data clustered at (5, 5); a centroid starting at the origin should be
     pulled towards the cluster by gradient descent on the Chamfer loss. *)
  let points = Mat.init 20 2 (fun _ _ -> 5. +. Rng.normal rng ~sigma:0.1 ()) in
  let centroids = Mat.of_rows [| [| 0.; 0. |] |] in
  for _ = 1 to 200 do
    let _, grad = Loss.chamfer ~points ~centroids in
    Array.iteri
      (fun i g -> centroids.Mat.data.{i} <- centroids.Mat.data.{i} -. (0.05 *. g))
      (Mat.to_array grad)
  done;
  Alcotest.(check bool) "centroid reached cluster" true
    (abs_float (Mat.get centroids 0 0 -. 5.) < 0.5 && abs_float (Mat.get centroids 0 1 -. 5.) < 0.5)

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

let test_network_shapes_and_spec_errors () =
  let rng = Rng.create 9 in
  let net = Network.create rng ~in_dim:4 [ `Dense 8; `Relu; `Dense 3 ] in
  let y = Network.forward net ~train:false rng (Mat.zeros 2 4) in
  Alcotest.(check (pair int int)) "2x4 in, 2x3 out" (2, 3) (y.Mat.rows, y.Mat.cols);
  Alcotest.(check bool) "empty spec rejected" true
    (try
       ignore (Network.create rng ~in_dim:2 []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "relu first rejected" true
    (try
       ignore (Network.create rng ~in_dim:2 [ `Relu ]);
       false
     with Invalid_argument _ -> true)

let test_network_gradients () =
  let rng = Rng.create 10 in
  let net = Network.create rng ~in_dim:3 [ `Dense 5; `Relu; `Dense 2 ] in
  let x = Mat.init 4 3 (fun i j -> (float_of_int ((i * 3) + j) /. 6.) -. 0.5) in
  let loss_of () = quadratic_loss (Network.forward net ~train:false rng x) in
  let y = Network.forward net ~train:false rng x in
  List.iter Layer.zero_grad (Network.params net);
  ignore (Network.backward net (dquadratic y));
  List.iteri
    (fun li p -> fd_mat (Printf.sprintf "net param %d" li) p.Layer.value p.Layer.grad loss_of)
    (Network.params net)

let test_network_learns_linear_function () =
  let rng = Rng.create 11 in
  let net = Network.create rng ~in_dim:1 [ `Dense 16; `Relu; `Dense 1 ] in
  let opt = Optimizer.adam ~lr:0.01 (Network.params net) in
  let xs = Array.init 32 (fun i -> (float_of_int i /. 16.) -. 1.) in
  let targets = Array.map (fun x -> (2. *. x) +. 1.) xs in
  let batch = Mat.of_rows (Array.map (fun x -> [| x |]) xs) in
  for _ = 1 to 500 do
    let y = Network.forward net rng batch in
    let dy = Mat.zeros 32 1 in
    for i = 0 to 31 do
      Mat.set dy i 0 (2. *. (Mat.get y i 0 -. targets.(i)) /. 32.)
    done;
    ignore (Network.backward net dy);
    Optimizer.step opt
  done;
  let y = Network.forward net ~train:false rng batch in
  let mse = ref 0. in
  for i = 0 to 31 do
    let e = Mat.get y i 0 -. targets.(i) in
    mse := !mse +. (e *. e /. 32.)
  done;
  Alcotest.(check bool) "fits y=2x+1" true (!mse < 0.01)

let test_network_hidden_activations () =
  let rng = Rng.create 12 in
  let net = Network.create rng ~in_dim:3 [ `Dense 7; `Relu; `Dense 2 ] in
  let x = Mat.init 2 3 (fun _ _ -> 0.5) in
  ignore (Network.forward net ~train:false rng x);
  match Network.hidden_after_forward net with
  | [ h1; h2 ] ->
    Alcotest.(check int) "first dense width" 7 h1.Mat.cols;
    Alcotest.(check int) "second dense width" 2 h2.Mat.cols
  | _ -> Alcotest.fail "expected two dense activations"

let test_network_save_load_roundtrip () =
  let rng = Rng.create 13 in
  let a = Network.create rng ~in_dim:3 [ `Dense 5; `Relu; `Dense 2 ] in
  let b = Network.create rng ~in_dim:3 [ `Dense 5; `Relu; `Dense 2 ] in
  Network.load_weights b (Network.save_weights a);
  let x = Mat.init 3 3 (fun i j -> float_of_int (i - j) /. 3.) in
  let ya = Network.forward a ~train:false rng x and yb = Network.forward b ~train:false rng x in
  Alcotest.(check (array (float 1e-12))) "identical outputs" (Mat.to_array ya) (Mat.to_array yb);
  Alcotest.(check bool) "size mismatch rejected" true
    (try
       Network.load_weights b [| 1.; 2. |];
       false
     with Invalid_argument _ -> true)

let test_network_copy_independent () =
  let rng = Rng.create 14 in
  let a = Network.create rng ~in_dim:2 [ `Dense 3; `Relu; `Dense 1 ] in
  let b = Network.copy a in
  let x = Mat.of_rows [| [| 0.4; -0.2 |] |] in
  let before = (Network.forward b ~train:false rng x).Mat.data.{0} in
  (* Train [a]; [b] must not move. *)
  let opt = Optimizer.adam ~lr:0.1 (Network.params a) in
  for _ = 1 to 10 do
    let y = Network.forward a rng x in
    ignore (Network.backward a (dquadratic y));
    Optimizer.step opt
  done;
  let after = (Network.forward b ~train:false rng x).Mat.data.{0} in
  Alcotest.(check (float 1e-12)) "copy unaffected" before after

(* ------------------------------------------------------------------ *)
(* Optimizers                                                          *)
(* ------------------------------------------------------------------ *)

let rosenbrock_like_quadratic optimizer_of =
  (* Minimise f(w) = Σ (w_i - i)² over a 1×4 tensor. *)
  let p = Layer.tensor_zeros 1 4 in
  let opt = optimizer_of [ p ] in
  for _ = 1 to 2000 do
    Array.iteri
      (fun i v -> p.Layer.grad.Mat.data.{i} <- 2. *. (v -. float_of_int i))
      (Mat.to_array p.Layer.value);
    Optimizer.step opt
  done;
  Array.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "w[%d] converged" i)
        true
        (abs_float (v -. float_of_int i) < 0.01))
    (Mat.to_array p.Layer.value)

let test_adam_converges () = rosenbrock_like_quadratic (fun ps -> Optimizer.adam ~lr:0.05 ps)

let test_step_zeroes_grads () =
  let p = Layer.tensor_zeros 1 2 in
  let opt = Optimizer.adam ~lr:0.1 [ p ] in
  p.Layer.grad.Mat.data.{0} <- 1.;
  Optimizer.step opt;
  Alcotest.(check (float 1e-12)) "grad reset" 0. p.Layer.grad.Mat.data.{0};
  (* Adam's first step moves by lr, less ε's share. *)
  Alcotest.(check (float 1e-6)) "value moved" (-0.1) p.Layer.value.Mat.data.{0}

(* One fused pass would let a repeated tensor see its own zeroed
   gradient, so Adam refuses to share storage between parameters. *)
let test_adam_rejects_repeated_tensor () =
  let p = Layer.tensor_zeros 2 3 and q = Layer.tensor_zeros 2 3 in
  let rejects name params =
    Alcotest.check_raises name (Invalid_argument "Optimizer.adam: a parameter appears twice")
      (fun () -> ignore (Optimizer.adam ~lr:0.1 params))
  in
  rejects "the same tensor twice" [ p; q; p ];
  rejects "a shared gradient" [ p; { q with Layer.grad = p.Layer.grad } ];
  ignore (Optimizer.adam ~lr:0.1 [ p; q ])

(* The one-pass Adam step against the three passes it replaced: one to
   five steps over one to four tensors, at weight decay 0 and 5.0, with
   gradients over many magnitudes (signed zeros and non-finite values
   among them).  Values, both moments and the zeroed gradients must
   match bit for bit after every step. *)
let prop_adam_matches_oracle =
  QCheck2.Test.make ~name:"one-pass adam bitwise equals the three-pass step" ~count:200
    QCheck2.Gen.(quad (int_range 1 5) (int_range 1 4) bool (int_range 0 10000))
    (fun (steps, count, decay, seed) ->
      let rng = Rng.create seed in
      let weight_decay = if decay then 5.0 else 0. in
      let shapes = List.init count (fun _ -> (1 + Rng.int rng 5, 1 + Rng.int rng 7)) in
      let tensors () =
        Array.of_list
          (List.map
             (fun (r, c) ->
               let value = Oracle.random_mat (Rng.create (seed + r)) r c in
               { Layer.value; grad = Mat.zeros r c })
             shapes)
      in
      let ps = tensors () and qs = tensors () in
      let opt = Optimizer.adam ~weight_decay ~lr:0.01 (Array.to_list ps) in
      let reference = Oracle.Adam.create ~weight_decay ~lr:0.01 qs in
      let bits a = Array.map Oracle.bits a in
      let rec go k =
        k = 0
        ||
        (Array.iteri
           (fun i p ->
             let rows = p.Layer.grad.Mat.rows and cols = p.Layer.grad.Mat.cols in
             let g = Oracle.random_mat ~special:true rng rows cols in
             Mat.blit_from_array (Mat.to_array g) p.Layer.grad;
             Mat.blit_from_array (Mat.to_array g) qs.(i).Layer.grad)
           ps;
         Optimizer.step opt;
         Oracle.Adam.step reference;
         let moments = Optimizer.moments opt in
         Array.for_all2
           (fun p q ->
             Oracle.same_bits p.Layer.value q.Layer.value
             && Oracle.same_bits p.Layer.grad q.Layer.grad
             && Array.for_all (fun g -> Oracle.bits g = 0L) (Mat.to_array p.Layer.grad))
           ps qs
        && Array.for_all2 (fun (m, _) m' -> bits m = bits m') moments reference.Oracle.Adam.m
        && Array.for_all2 (fun (_, v) v' -> bits v = bits v') moments reference.Oracle.Adam.v
        && go (k - 1))
      in
      go steps)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_sigmoid_bounds =
  QCheck2.Test.make ~name:"sigmoid in [0,1] and symmetric" ~count:200
    QCheck2.Gen.(float_range (-100.) 100.)
    (fun x ->
      (* Strict openness only holds while exp doesn't round to 0/1. *)
      let s = Loss.sigmoid x in
      s >= 0. && s <= 1.
      && (abs_float x > 30. || (s > 0. && s < 1.))
      && abs_float (s +. Loss.sigmoid (-.x) -. 1.) < 1e-9)

let prop_bce_nonnegative =
  QCheck2.Test.make ~name:"bce loss is non-negative" ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 10) (pair (float_range (-20.) 20.) bool))
    (fun pairs ->
      let logits = Array.of_list (List.map fst pairs) in
      let targets = Array.of_list (List.map (fun (_, b) -> if b then 1. else 0.) pairs) in
      let loss, _ = Loss.bce_with_logits ~logits ~targets () in
      loss >= -1e-12)

let prop_chamfer_nonnegative =
  QCheck2.Test.make ~name:"chamfer loss is non-negative" ~count:100
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let rng = Rng.create seed in
      let points = Mat.init 5 3 (fun _ _ -> Rng.normal rng ()) in
      let centroids = Mat.init 4 3 (fun _ _ -> Rng.normal rng ()) in
      let loss, _ = Loss.chamfer ~points ~centroids in
      loss >= 0.)

let prop_rbf_outputs_bounded =
  QCheck2.Test.make ~name:"rbf activations in (0, 1]" ~count:100
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let rng = Rng.create seed in
      let r = Layer.Rbf.create rng ~in_dim:3 ~centroids:5 ~gamma:0.4 in
      let z = Mat.init 4 3 (fun _ _ -> Rng.normal rng ~sigma:2. ()) in
      let phi = Layer.Rbf.forward r z in
      Array.for_all (fun v -> v >= 0. && v <= 1.) (Mat.to_array phi))

(* ------------------------------------------------------------------ *)
(* Kernels against the scalar oracle (test/oracle.ml)                  *)
(* ------------------------------------------------------------------ *)

let dims = QCheck2.Gen.(triple (int_range 0 13) (int_range 0 13) (int_range 0 10000))

(* Three identical layers (one kept as the reference) with a non-zero
   bias and pre-filled gradients, so the bias add and the accumulation
   into existing gradients both show. *)
let prop_dense_matches_oracle =
  QCheck2.Test.make ~name:"dense forward, backward, accumulate bitwise equal the oracle"
    ~count:150
    QCheck2.Gen.(pair dims (int_range 1 13))
    (fun ((batch, in_dim, seed), out_dim) ->
      let in_dim = max 1 in_dim in
      let rng = Rng.create seed in
      let layer () =
        let d = Layer.Dense.create (Rng.create seed) ~in_dim ~out_dim in
        let fill = Rng.create (seed + 1) in
        List.iter
          (fun p ->
            List.iter
              (fun m ->
                for i = 0 to Mat.numel m - 1 do
                  Mat.set_flat m i (Oracle.value fill)
                done)
              [ p.Layer.value; p.Layer.grad ])
          (Layer.Dense.params d);
        d
      in
      let d = layer () and d' = layer () in
      let w, b, gw, gb =
        match Layer.Dense.params (layer ()) with
        | [ w; b ] -> (w.Layer.value, b.Layer.value, w.Layer.grad, b.Layer.grad)
        | _ -> assert false
      in
      let x = Oracle.random_mat rng batch in_dim and dy = Oracle.random_mat rng batch out_dim in
      let y = Layer.Dense.forward d x in
      ignore (Layer.Dense.forward d' x);
      let dx = Layer.Dense.backward d dy in
      Layer.Dense.accumulate d' dy;
      let dw, db, want_dx = Oracle.dense_backward x w dy in
      let grads_ok layer =
        match Layer.Dense.params layer with
        | [ w; b ] ->
          Oracle.same_bits (Oracle.map2 ( +. ) gw dw) w.Layer.grad
          && Oracle.same_bits (Oracle.map2 ( +. ) gb db) b.Layer.grad
        | _ -> false
      in
      Oracle.same_bits (Oracle.dense_forward x w b) y
      && Oracle.same_bits want_dx dx && grads_ok d && grads_ok d')

let prop_relu_matches_oracle =
  QCheck2.Test.make ~name:"relu forward and backward bitwise equal the oracle" ~count:200 dims
    (fun (rows, cols, seed) ->
      let rng = Rng.create seed in
      let x = Oracle.random_mat ~special:true rng rows cols in
      let dy = Oracle.random_mat ~special:true rng rows cols in
      let r = Layer.Relu.create () in
      let y = Layer.Relu.forward r x in
      Oracle.same_bits (Oracle.relu_forward x) y
      && Oracle.same_bits (Oracle.relu_backward x dy) (Layer.Relu.backward r dy))

(* Both draw from copies of one stream, which must end in the same
   state. *)
let prop_dropout_matches_oracle =
  QCheck2.Test.make ~name:"dropout forward, backward and rng state bitwise equal the oracle"
    ~count:200
    QCheck2.Gen.(triple dims (oneofl [ 0.; 0.05; 0.3; 0.5; 0.9 ]) bool)
    (fun ((rows, cols, seed), rate, train) ->
      let rng = Rng.create seed in
      let x = Oracle.random_mat ~special:true rng rows cols in
      let dy = Oracle.random_mat ~special:true rng rows cols in
      let drops = Rng.copy rng and oracle_drops = Rng.copy rng in
      let d = Layer.Dropout.create ~rate in
      let y = Layer.Dropout.forward d ~train drops x in
      let want_y, want_dx =
        if train && rate > 0. then begin
          let y, mask = Oracle.dropout_forward ~rate oracle_drops x in
          (y, Oracle.dropout_backward mask dy)
        end
        else (x, dy)
      in
      Oracle.same_bits want_y y
      && Oracle.same_bits want_dx (Layer.Dropout.backward d dy)
      && Rng.state drops = Rng.state oracle_drops)

let prop_rbf_matches_oracle =
  QCheck2.Test.make ~name:"rbf forward bitwise equals the oracle" ~count:150
    QCheck2.Gen.(pair dims (pair (int_range 1 13) (float_range 0.1 3.)))
    (fun ((rows, in_dim, seed), (centroids, gamma)) ->
      let rng = Rng.create seed in
      let r = Layer.Rbf.create rng ~in_dim ~centroids ~gamma in
      let z = Oracle.random_mat rng rows in_dim in
      Oracle.same_bits
        (Oracle.rbf_forward ~centroids:(Layer.Rbf.centroid_matrix r) ~gamma z)
        (Layer.Rbf.forward r z))

(* Some rows repeat an earlier one, so distances tie and the lowest
   index must win in both directions. *)
let prop_chamfer_matches_oracle =
  QCheck2.Test.make ~name:"chamfer loss and gradient bitwise equal the oracle" ~count:200
    QCheck2.Gen.(pair dims (int_range 0 13))
    (fun ((n, d, seed), m) ->
      let rng = Rng.create seed in
      let with_repeats rows =
        let a = Oracle.random_mat rng rows d in
        for i = 1 to rows - 1 do
          if Rng.int rng 3 = 0 then Mat.set_row a i (Mat.row a (Rng.int rng i))
        done;
        a
      in
      let points = with_repeats n and centroids = with_repeats m in
      let want_loss, want_grad = Oracle.chamfer ~points ~centroids in
      let loss, grad = Loss.chamfer ~points ~centroids in
      Oracle.bits want_loss = Oracle.bits loss && Oracle.same_bits want_grad grad)

(* Two copies of one network see the same forward pass; [accumulate] on
   one must leave every parameter gradient [backward] leaves on the
   other. *)
let prop_accumulate_matches_backward =
  QCheck2.Test.make ~name:"Network.accumulate leaves the gradients of Network.backward" ~count:100
    QCheck2.Gen.(pair dims (triple (int_range 1 13) (int_range 1 13) (oneofl [ 0.; 0.3 ])))
    (fun ((batch, in_dim, seed), (h1, h2, rate)) ->
      let in_dim = max 1 in_dim in
      let spec = [ `Dense h1; `Relu; `Dropout rate; `Dense h2; `Relu; `Dense 3 ] in
      let a = Network.create (Rng.create seed) ~in_dim spec in
      let b = Network.create (Rng.create seed) ~in_dim spec in
      let rng = Rng.create (seed + 1) in
      let x = Oracle.random_mat rng batch in_dim and dy = Oracle.random_mat rng batch 3 in
      ignore (Network.forward a (Rng.create seed) x);
      ignore (Network.forward b (Rng.create seed) x);
      ignore (Network.backward a dy);
      Network.accumulate b dy;
      List.for_all2
        (fun p q -> Oracle.same_bits p.Layer.grad q.Layer.grad)
        (Network.params a) (Network.params b))

let () =
  Alcotest.run "nn"
    [ ( "dense",
        [ Alcotest.test_case "shapes" `Quick test_dense_shapes;
          Alcotest.test_case "gradients vs finite differences" `Quick test_dense_gradients ] );
      ( "activations",
        [ Alcotest.test_case "relu" `Quick test_relu;
          Alcotest.test_case "dropout train/eval" `Quick test_dropout_train_and_eval;
          Alcotest.test_case "dropout backward" `Quick test_dropout_backward_masks ] );
      ( "rbf",
        [ Alcotest.test_case "activation range" `Quick test_rbf_activation_range;
          Alcotest.test_case "peak at centroid" `Quick test_rbf_peak_at_centroid;
          Alcotest.test_case "gradients vs finite differences" `Quick test_rbf_gradients ] );
      ( "losses",
        [ Alcotest.test_case "bce known values" `Quick test_bce_known_values;
          Alcotest.test_case "bce gradient" `Quick test_bce_gradient;
          Alcotest.test_case "bce extreme logits" `Quick test_bce_extreme_logits_stable;
          Alcotest.test_case "heteroscedastic gradient" `Quick test_heteroscedastic_gradient;
          Alcotest.test_case "uncertainty trade-off" `Quick test_heteroscedastic_uncertainty_tradeoff;
          Alcotest.test_case "chamfer zero when matched" `Quick test_chamfer_zero_when_matched;
          Alcotest.test_case "chamfer gradient" `Quick test_chamfer_gradient;
          Alcotest.test_case "chamfer pulls centroids" `Quick test_chamfer_pulls_centroids_to_data ] );
      ( "network",
        [ Alcotest.test_case "shapes and spec errors" `Quick test_network_shapes_and_spec_errors;
          Alcotest.test_case "gradients vs finite differences" `Quick test_network_gradients;
          Alcotest.test_case "learns linear function" `Quick test_network_learns_linear_function;
          Alcotest.test_case "hidden activations" `Quick test_network_hidden_activations;
          Alcotest.test_case "save/load roundtrip" `Quick test_network_save_load_roundtrip;
          Alcotest.test_case "copy independence" `Quick test_network_copy_independent ] );
      ( "optimizers",
        [ Alcotest.test_case "adam converges" `Quick test_adam_converges;
          Alcotest.test_case "step zeroes grads" `Quick test_step_zeroes_grads;
          Alcotest.test_case "adam rejects a repeated tensor" `Quick
            test_adam_rejects_repeated_tensor ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sigmoid_bounds; prop_bce_nonnegative; prop_chamfer_nonnegative;
            prop_rbf_outputs_bounded ] );
      ( "oracle",
        List.map QCheck_alcotest.to_alcotest
          [ prop_dense_matches_oracle; prop_relu_matches_oracle; prop_dropout_matches_oracle;
            prop_rbf_matches_oracle; prop_chamfer_matches_oracle;
            prop_accumulate_matches_backward; prop_adam_matches_oracle ] ) ]
