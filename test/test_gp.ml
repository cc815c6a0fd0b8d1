open Wayfinder_gp
module Mat = Wayfinder_tensor.Mat
module Vec = Wayfinder_tensor.Vec
module Rng = Wayfinder_tensor.Rng

let se ?(lengthscale = 1.) ?(variance = 1.) () =
  Kernel.Squared_exponential { lengthscale; variance }

let test_kernel_self_similarity () =
  let x = [| 0.5; -0.3 |] in
  Alcotest.(check (float 1e-9)) "SE k(x,x) = variance" 2.
    (Kernel.eval (se ~variance:2. ()) x x);
  Alcotest.(check (float 1e-9)) "Matern k(x,x) = variance" 1.5
    (Kernel.eval (Kernel.Matern52 { lengthscale = 1.; variance = 1.5 }) x x)

let test_kernel_decay () =
  let k = se () in
  let origin = [| 0. |] in
  let near = Kernel.eval k origin [| 0.1 |] and far = Kernel.eval k origin [| 3. |] in
  Alcotest.(check bool) "monotone decay" true (near > far);
  Alcotest.(check bool) "positive" true (far > 0.)

let test_gram_symmetric_psd () =
  let rng = Rng.create 1 in
  let x = Mat.init 6 2 (fun _ _ -> Rng.normal rng ()) in
  let g = Kernel.gram (se ()) x in
  for i = 0 to 5 do
    for j = 0 to 5 do
      Alcotest.(check (float 1e-12)) "symmetric" (Mat.get g i j) (Mat.get g j i)
    done
  done;
  (* PSD: jittered Cholesky must succeed. *)
  ignore (Mat.cholesky (Mat.add_jitter g 1e-8))

let sine_data n =
  let xs = Array.init n (fun i -> float_of_int i /. float_of_int (n - 1) *. 6.) in
  let x = Mat.of_rows (Array.map (fun v -> [| v |]) xs) in
  let y = Array.map sin xs in
  (x, y, xs)

let test_gp_interpolates_training_points () =
  let x, y, xs = sine_data 12 in
  let gp = Gp.fit ~noise:1e-6 (se ~lengthscale:0.8 ()) x y in
  Array.iteri
    (fun i xv ->
      let mean, var = Gp.predict gp [| xv |] in
      Alcotest.(check bool)
        (Printf.sprintf "mean at train point %d" i)
        true
        (abs_float (mean -. y.(i)) < 1e-3);
      Alcotest.(check bool) "tiny variance at train point" true (var < 1e-3))
    xs

let test_gp_uncertainty_grows_away_from_data () =
  let x, y, _ = sine_data 8 in
  let gp = Gp.fit (se ~lengthscale:0.5 ()) x y in
  let _, var_near = Gp.predict gp [| 3.0 |] in
  let _, var_far = Gp.predict gp [| 20.0 |] in
  Alcotest.(check bool) "variance larger off-data" true (var_far > var_near);
  Alcotest.(check bool) "variance approaches prior" true (abs_float (var_far -. 1.) < 0.1)

let test_gp_prediction_quality () =
  let x, y, _ = sine_data 20 in
  let gp = Gp.fit (se ~lengthscale:0.8 ()) x y in
  (* Interpolation error at unseen midpoints should be small. *)
  let err = ref 0. in
  for i = 0 to 18 do
    let q = (float_of_int i +. 0.5) /. 19. *. 6. in
    let mean, _ = Gp.predict gp [| q |] in
    err := max !err (abs_float (mean -. sin q))
  done;
  Alcotest.(check bool) "max interpolation error < 0.05" true (!err < 0.05)

let test_gp_rejects_bad_input () =
  Alcotest.(check bool) "no data" true
    (try
       ignore (Gp.fit (se ()) (Mat.zeros 0 1) [||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "size mismatch" true
    (try
       ignore (Gp.fit (se ()) (Mat.zeros 3 1) [| 1.; 2. |]);
       false
     with Invalid_argument _ -> true)

let test_std_normal_cdf () =
  Alcotest.(check (float 1e-6)) "cdf(0)" 0.5 (Gp.std_normal_cdf 0.);
  Alcotest.(check (float 1e-4)) "cdf(1.96)" 0.975 (Gp.std_normal_cdf 1.96);
  Alcotest.(check (float 1e-4)) "cdf(-1.96)" 0.025 (Gp.std_normal_cdf (-1.96));
  Alcotest.(check bool) "monotone" true (Gp.std_normal_cdf 1. > Gp.std_normal_cdf 0.5)

(* The density is the cdf's derivative: symmetric, peaking at
   1/sqrt(2 pi), and the cdf's central differences follow it. *)
let test_std_normal_pdf () =
  Alcotest.(check (float 1e-12)) "pdf(0)" (1. /. sqrt (2. *. Float.pi)) (Gp.std_normal_pdf 0.);
  Alcotest.(check (float 1e-12)) "symmetric" (Gp.std_normal_pdf 1.3) (Gp.std_normal_pdf (-1.3));
  List.iter
    (fun x ->
      let h = 1e-3 in
      let slope = (Gp.std_normal_cdf (x +. h) -. Gp.std_normal_cdf (x -. h)) /. (2. *. h) in
      Alcotest.(check (float 1e-4)) (Printf.sprintf "cdf slope at %g" x) (Gp.std_normal_pdf x)
        slope)
    [ -2.; -0.5; 0.; 0.7; 1.9 ]

let test_expected_improvement_behaviour () =
  let x, y, _ = sine_data 8 in
  let gp = Gp.fit (se ~lengthscale:0.5 ()) x y in
  let best = Array.fold_left max neg_infinity y in
  (* EI is non-negative everywhere. *)
  for i = 0 to 30 do
    let q = [| float_of_int i /. 5. |] in
    Alcotest.(check bool) "EI >= 0" true (Gp.expected_improvement gp ~best q >= 0.)
  done;
  (* EI at a training point (known value, no uncertainty) is ~0; far from
     data, uncertainty makes EI positive. *)
  let ei_train = Gp.expected_improvement gp ~best [| 0. |] in
  let ei_far = Gp.expected_improvement gp ~best [| 30. |] in
  Alcotest.(check bool) "EI vanishes on known non-best point" true (ei_train < 1e-3);
  Alcotest.(check bool) "EI positive off-data" true (ei_far > 0.01)

let test_bayesopt_finds_peak () =
  (* Maximise a smooth 1-D function with a candidate-pool BO loop. *)
  let f x = -.((x -. 2.) *. (x -. 2.)) +. 3. in
  let rng = Rng.create 5 in
  let xs = ref [ [| 0. |]; [| 4. |] ] in
  let ys = ref [ f 0.; f 4. ] in
  for _ = 1 to 25 do
    let x = Mat.of_rows (Array.of_list !xs) in
    let y = Array.of_list !ys in
    let gp = Gp.fit (se ~lengthscale:1. ()) x y in
    let best = Array.fold_left max neg_infinity y in
    (* Candidate pool over [0, 4]. *)
    let best_q = ref [| 0. |] and best_ei = ref neg_infinity in
    for _ = 1 to 64 do
      let q = [| Rng.uniform rng 0. 4. |] in
      let ei = Gp.expected_improvement gp ~best q in
      if ei > !best_ei then begin
        best_ei := ei;
        best_q := q
      end
    done;
    xs := !best_q :: !xs;
    ys := f !best_q.(0) :: !ys
  done;
  let found = List.fold_left max neg_infinity !ys in
  Alcotest.(check bool) "found near-optimal value" true (found > 2.99)

let prop_predict_variance_nonnegative =
  QCheck2.Test.make ~name:"posterior variance is non-negative" ~count:50
    QCheck2.Gen.(pair (int_range 0 10000) (float_range (-10.) 10.))
    (fun (seed, q) ->
      let rng = Rng.create seed in
      let x = Mat.init 6 1 (fun _ _ -> Rng.uniform rng (-5.) 5.) in
      let y = Array.init 6 (fun i -> sin (Mat.get x i 0)) in
      let gp = Gp.fit (se ()) x y in
      let _, var = Gp.predict gp [| q |] in
      var >= 0.)

(* ------------------------------------------------------------------ *)
(* Bitwise contracts                                                   *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

let kernel_gen =
  QCheck2.Gen.(
    map3
      (fun matern lengthscale variance ->
        if matern then Kernel.Matern52 { lengthscale; variance }
        else Kernel.Squared_exponential { lengthscale; variance })
      bool (float_range 0.3 3.) (float_range 0.5 2.))

let prop_gram_is_pairwise_eval =
  QCheck2.Test.make ~name:"gram bitwise equals pairwise eval" ~count:100
    QCheck2.Gen.(quad kernel_gen (int_range 1 20) (int_range 1 12) (int_range 0 10000))
    (fun (k, n, d, seed) ->
      let rng = Rng.create seed in
      let x = Mat.init n d (fun _ _ -> Rng.uniform rng (-2.) 2.) in
      let g = Kernel.gram k x in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let e = Kernel.eval k (Mat.row x (max i j)) (Mat.row x (min i j)) in
          if bits (Mat.get g i j) <> bits e then ok := false
        done
      done;
      !ok)

(* The GP as it was fitted and queried one candidate at a time before
   the batched posterior: row copies, checked access, the textbook
   loops.  Every element of a batch must match it bit for bit. *)
module Oracle = struct
  let eval k a b =
    match k with
    | Kernel.Squared_exponential { lengthscale; variance } ->
      let r2 = Vec.sq_dist a b in
      variance *. exp (-.r2 /. (2. *. lengthscale *. lengthscale))
    | Kernel.Matern52 { lengthscale; variance } ->
      let r = Vec.dist a b /. lengthscale in
      let c = sqrt 5. *. r in
      variance *. (1. +. c +. (5. *. r *. r /. 3.)) *. exp (-.c)

  let cholesky a =
    let n = a.Mat.rows in
    let l = Mat.zeros n n in
    for i = 0 to n - 1 do
      for j = 0 to i do
        let acc = ref (Mat.get a i j) in
        for k = 0 to j - 1 do
          acc := !acc -. (Mat.get l i k *. Mat.get l j k)
        done;
        if i = j then Mat.set l i i (sqrt !acc) else Mat.set l i j (!acc /. Mat.get l j j)
      done
    done;
    l

  let solve_lower l b =
    let n = l.Mat.rows in
    let x = Array.make n 0. in
    for i = 0 to n - 1 do
      let acc = ref b.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (Mat.get l i j *. x.(j))
      done;
      x.(i) <- !acc /. Mat.get l i i
    done;
    x

  let solve_upper l b =
    let n = l.Mat.rows in
    let x = Array.make n 0. in
    for i = n - 1 downto 0 do
      let acc = ref b.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (Mat.get l j i *. x.(j))
      done;
      x.(i) <- !acc /. Mat.get l i i
    done;
    x

  (* [fit] returns the posterior at a candidate. *)
  let fit ~noise k x y =
    let rows = Array.init x.Mat.rows (Mat.row x) in
    let n = Array.length rows in
    let gram = Mat.init n n (fun i j -> eval k rows.(max i j) rows.(min i j)) in
    let chol = cholesky (Mat.add_jitter gram noise) in
    let alpha = solve_upper chol (solve_lower chol y) in
    fun q ->
      let k_star = Array.map (fun row -> eval k row q) rows in
      let mean = Vec.dot k_star alpha in
      let v = solve_lower chol k_star in
      let var = eval k q q +. noise -. Vec.dot v v in
      (mean, max 0. var)

  let expected_improvement posterior ~best q =
    let mean, var = posterior q in
    let sigma = sqrt var in
    if sigma < 1e-12 then 0.
    else begin
      let z = (mean -. best) /. sigma in
      ((mean -. best) *. Gp.std_normal_cdf z) +. (sigma *. Gp.std_normal_pdf z)
    end
end

(* n in [1,40] (every remainder of the four-row blocks of
   [Kernel.cross2_into] and [Mat.solve_lower2]), d in [1,16], p in [0,40]
   (a lone last candidate for odd p),
   both kernels, optionally every other training row repeated, and a
   third of the candidates sitting on training rows (the zero-variance
   branch of EI). *)
let prop_batch_matches_oracle =
  QCheck2.Test.make ~name:"batched posterior and EI bitwise equal the per-candidate oracle"
    ~count:150
    QCheck2.Gen.(
      pair
        (quad kernel_gen (int_range 1 40) (int_range 1 16) (int_range 0 40))
        (pair bool (int_range 0 10000)))
    (fun ((k, n, d, p), (dup, seed)) ->
      let rng = Rng.create seed in
      let x = Mat.init n d (fun _ _ -> Rng.uniform rng (-2.) 2.) in
      if dup then
        for i = 1 to n - 1 do
          if i mod 2 = 1 then Mat.set_row x i (Mat.row x (i - 1))
        done;
      let y = Array.init n (fun _ -> Rng.normal rng ()) in
      let qs =
        Array.init p (fun c ->
            if c mod 3 = 0 then Mat.row x (c mod n) else Array.init d (fun _ -> Rng.uniform rng (-2.) 2.))
      in
      let best = Array.fold_left max neg_infinity y in
      let oracle = Oracle.fit ~noise:1e-3 k x y in
      let gp = Gp.fit ~noise:1e-3 k x y in
      let post = Gp.predict_batch gp qs and ei = Gp.expected_improvement_batch gp ~best qs in
      Array.length post = p
      && Array.length ei = p
      && Array.for_all Fun.id
           (Array.mapi
              (fun i q ->
                let mean, var = oracle q and m', v' = post.(i) in
                bits mean = bits m'
                && bits var = bits v'
                && bits (Oracle.expected_improvement oracle ~best q) = bits ei.(i)
                && (m', v') = Gp.predict gp q)
              qs))

(* Random sequences of observations, lies, pops and window reads, against
   the window as the Bayes searcher kept it in lists: newest first, lies
   on top, the newest [max_points] taken.  Every read must give that
   window's rows and targets and [Kernel.gram] of its rows, bit for bit,
   and a fit from the stored Gram must have the computed fit's posterior
   bits; the store never holds more than [max_points] rows.  A third of
   the points repeat the previous one. *)
type store_op = Observe | Lie | Pop_lies | Read

let prop_gram_store_matches_list_window =
  QCheck2.Test.make ~name:"Gram store reads bitwise equal the list window's gram and fit"
    ~count:200
    QCheck2.Gen.(
      pair
        (triple kernel_gen (int_range 1 12) (int_range 1 8))
        (pair
           (list_size (int_range 1 80)
              (frequency [ (3, pure Observe); (2, pure Lie); (1, pure Pop_lies); (2, pure Read) ]))
           (int_range 0 10000)))
    (fun ((k, max_points, d), (ops, seed)) ->
      let rng = Rng.create seed in
      let store = Gram_store.create k ~max_points in
      let observed = ref [] and lies = ref [] and last = ref None in
      let point () =
        let x =
          match !last with
          | Some x when Rng.int rng 3 = 0 -> Array.copy x
          | Some _ | None -> Array.init d (fun _ -> Rng.uniform rng (-2.) 2.)
        in
        last := Some x;
        (x, Rng.normal rng ())
      in
      let rec take n = function p :: rest when n > 0 -> p :: take (n - 1) rest | _ -> [] in
      let same a b = Array.map bits (Mat.to_array a) = Array.map bits (Mat.to_array b) in
      let read () =
        match take max_points (!lies @ !observed) with
        | [] -> ( try ignore (Gram_store.window store); false with Invalid_argument _ -> true)
        | window ->
          let x, y, gram = Gram_store.window store in
          let x' = Mat.of_rows (Array.of_list (List.map fst window)) in
          let y' = Array.of_list (List.map snd window) in
          let qs = Array.init 3 (fun _ -> Array.init d (fun _ -> Rng.uniform rng (-2.) 2.)) in
          let posterior gp = Array.map (fun (m, v) -> (bits m, bits v)) (Gp.predict_batch gp qs) in
          same x x'
          && Array.map bits y = Array.map bits y'
          && same gram (Kernel.gram k x')
          && posterior (Gp.fit ~noise:1e-3 ~gram k x y) = posterior (Gp.fit ~noise:1e-3 k x' y')
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Observe ->
              let x, y = point () in
              Gram_store.observe store x y;
              observed := (x, y) :: !observed;
              true
            | Lie ->
              let x, y = point () in
              Gram_store.lie store x y;
              lies := (x, y) :: !lies;
              true
            | Pop_lies ->
              Gram_store.pop_lies store;
              lies := [];
              true
            | Read -> read ()
          in
          ok
          && Gram_store.held store <= max_points
          && Gram_store.length store = List.length !lies + List.length !observed)
        ops)

let () =
  Alcotest.run "gp"
    [ ( "kernel",
        [ Alcotest.test_case "self similarity" `Quick test_kernel_self_similarity;
          Alcotest.test_case "distance decay" `Quick test_kernel_decay;
          Alcotest.test_case "gram symmetric PSD" `Quick test_gram_symmetric_psd ] );
      ( "regression",
        [ Alcotest.test_case "interpolates training points" `Quick test_gp_interpolates_training_points;
          Alcotest.test_case "uncertainty grows off-data" `Quick test_gp_uncertainty_grows_away_from_data;
          Alcotest.test_case "prediction quality" `Quick test_gp_prediction_quality;
          Alcotest.test_case "input validation" `Quick test_gp_rejects_bad_input ] );
      ( "acquisition",
        [ Alcotest.test_case "normal cdf" `Quick test_std_normal_cdf;
          Alcotest.test_case "expected improvement" `Quick test_expected_improvement_behaviour;
          Alcotest.test_case "bayesopt finds peak" `Quick test_bayesopt_finds_peak ] );
      ("standard normal", [ Alcotest.test_case "pdf" `Quick test_std_normal_pdf ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_predict_variance_nonnegative; prop_gram_is_pairwise_eval;
            prop_batch_matches_oracle; prop_gram_store_matches_list_window ] ) ]
