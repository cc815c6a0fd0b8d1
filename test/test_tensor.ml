open Wayfinder_tensor

let check_float = Alcotest.(check (float 1e-9))
let check_floatish = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_zero_well_mixed () =
  (* The seed is pre-mixed, so seed 0 must not degenerate (the raw state 0
     starts the Weyl sequence at 0) and nearby seeds must give unrelated
     streams from the first draw. *)
  let z = Rng.create 0 in
  Alcotest.(check bool) "seed 0 first draw is non-zero" true (Rng.bits64 z <> 0L);
  let z = Rng.create 0 and o = Rng.create 1 in
  let shared = ref 0 in
  for _ = 1 to 100 do
    if Rng.bits64 z = Rng.bits64 o then incr shared
  done;
  Alcotest.(check int) "seeds 0 and 1 share no draws" 0 !shared;
  (* Floats from seed 0 look uniform, not stuck near a fixed point. *)
  let z = Rng.create 0 in
  let acc = ref 0. in
  for _ = 1 to 1000 do
    acc := !acc +. Rng.float z 1.0
  done;
  let mean = !acc /. 1000. in
  Alcotest.(check bool) "seed 0 float mean near 0.5" true
    (mean > 0.45 && mean < 0.55)

let test_rng_split_independence () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

let test_rng_int_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (x >= 0 && x < 10)
  done

let test_rng_int_in_bounds () =
  let rng = Rng.create 2 in
  for _ = 1 to 1000 do
    let x = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (x >= -5 && x <= 5)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (x >= 0. && x < 2.5)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 4 in
  let xs = Array.init 20000 (fun _ -> Rng.uniform rng 0. 1.) in
  let m = Stat.mean xs in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (m -. 0.5) < 0.02)

let test_rng_normal_moments () =
  let rng = Rng.create 5 in
  let xs = Array.init 30000 (fun _ -> Rng.normal rng ~mu:3. ~sigma:2. ()) in
  Alcotest.(check bool) "mean near 3" true (abs_float (Stat.mean xs -. 3.) < 0.1);
  Alcotest.(check bool) "std near 2" true (abs_float (Stat.std xs -. 2.) < 0.1)

let test_rng_bernoulli_rate () =
  let rng = Rng.create 6 in
  let hits = ref 0 in
  for _ = 1 to 20000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 20000. in
  Alcotest.(check bool) "rate near 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_rng_shuffle_is_permutation () =
  let rng = Rng.create 9 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create 10 in
  let s = Rng.sample_without_replacement rng 10 30 in
  Alcotest.(check int) "k elements" 10 (Array.length s);
  let tbl = Hashtbl.create 10 in
  Array.iter
    (fun x ->
      Alcotest.(check bool) "in range" true (x >= 0 && x < 30);
      Alcotest.(check bool) "distinct" false (Hashtbl.mem tbl x);
      Hashtbl.add tbl x ())
    s

let test_rng_invalid_args () =
  let rng = Rng.create 11 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0));
  Alcotest.check_raises "int_in hi<lo" (Invalid_argument "Rng.int_in: hi < lo") (fun () ->
      ignore (Rng.int_in rng 3 2));
  Alcotest.check_raises "choice empty" (Invalid_argument "Rng.choice: empty array") (fun () ->
      ignore (Rng.choice rng [||]))

(* The state lives in bytes read and written in place, so the draws
   that return an immediate allocate nothing.  Coverage instrumentation
   (bisect_ppx, run with BISECT_FILE set) wraps every application in a
   visit call, which boxes what passes through it: the property is one
   of the uninstrumented build. *)
let test_rng_draws_allocate_nothing () =
  if Sys.getenv_opt "BISECT_FILE" = None then begin
    let rng = Rng.create 12 in
    let acc = ref 0 in
    let before = Gc.minor_words () in
    for _ = 1 to 1_000_000 do
      acc := !acc + Rng.int rng 1000;
      if Rng.bool rng then incr acc
    done;
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool) "draws happened" true (!acc > 0);
    Alcotest.(check (float 0.)) "minor words for 10^6 int and bool draws" 0. words
  end

(* [bernoulli] compares its unit draw without boxing it. *)
let test_rng_bernoulli_allocates_nothing () =
  if Sys.getenv_opt "BISECT_FILE" = None then begin
    let rng = Rng.create 13 in
    let hits = ref 0 in
    let before = Gc.minor_words () in
    for _ = 1 to 1_000_000 do
      if Rng.bernoulli rng 0.3 then incr hits
    done;
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool) "draws happened" true (!hits > 0);
    Alcotest.(check (float 0.)) "minor words for 10^6 bernoulli draws" 0. words
  end

(* [bernoulli t p] is [Rng.float t 1.0 < p] from the same state, and
   leaves the state where that draw leaves it. *)
let prop_bernoulli_is_float_below =
  QCheck2.Test.make ~count:300 ~name:"bernoulli equals float t 1.0 < p on copied states"
    QCheck2.Gen.(
      pair int
        (list_size (int_range 1 40)
           (oneof [ oneofl [ 0.; 0.05; 0.5; 0.95; 1. ]; float_range 0. 1.; float ])))
    (fun (seed, ps) ->
      let rng = Rng.create seed in
      List.for_all
        (fun p ->
          let twin = Rng.copy rng in
          Rng.bernoulli rng p = (Rng.float twin 1.0 < p) && Rng.state rng = Rng.state twin)
        ps)

(* Every draw, [split], [copy] and [state]/[set_state] give the stream
   of SplitMix64 on a boxed [int64] field, bit for bit. *)
let rng_matches_boxed_splitmix =
  QCheck2.Test.make ~count:300 ~name:"rng stream equals the boxed SplitMix64"
    QCheck2.Gen.(pair int (list_size (int_range 1 40) (pair (int_range 0 5) (int_range 1 1_000_000))))
    (fun (seed, ops) ->
      let module S = Oracle.Splitmix in
      let r = ref (Rng.create seed) and o = ref (S.create seed) in
      List.for_all
        (fun (op, bound) ->
          match op with
          | 0 -> Rng.int !r bound = S.int !o bound
          | 1 -> Int64.equal (Int64.bits_of_float (Rng.float !r 2.5)) (Int64.bits_of_float (S.float !o 2.5))
          | 2 -> Rng.bool !r = S.bool !o
          | 3 ->
            r := Rng.split !r;
            o := S.split !o;
            Int64.equal (Rng.state !r) !o.S.state
          | 4 ->
            let c = Rng.copy !r in
            ignore (Rng.bits64 !r);
            Rng.set_state !r (Rng.state c);
            Int64.equal (Rng.bits64 !r) (S.bits64 !o)
          | _ -> Int64.equal (Rng.bits64 !r) (S.bits64 !o))
        ops)

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_basic_algebra () =
  let a = [| 1.; 2.; 3. |] and b = [| 4.; 5.; 6. |] in
  Alcotest.(check (array (float 1e-12))) "add" [| 5.; 7.; 9. |] (Vec.add a b);
  Alcotest.(check (array (float 1e-12))) "sub" [| -3.; -3.; -3. |] (Vec.sub a b);
  Alcotest.(check (array (float 1e-12))) "mul" [| 4.; 10.; 18. |] (Vec.mul a b);
  check_float "dot" 32. (Vec.dot a b);
  check_float "sq_dist" 27. (Vec.sq_dist a b)

let test_vec_axpy () =
  let x = [| 1.; 2. |] and y = [| 10.; 20. |] in
  Vec.axpy 2. x y;
  Alcotest.(check (array (float 1e-12))) "y <- 2x+y" [| 12.; 24. |] y

let test_vec_extremes () =
  let v = [| 3.; -1.; 7.; 7.; 0. |] in
  Alcotest.(check int) "max_index" 2 (Vec.max_index v);
  Alcotest.(check int) "min_index" 1 (Vec.min_index v)

let test_vec_dim_mismatch () =
  Alcotest.check_raises "add mismatch" (Invalid_argument "Vec.add: dimension mismatch (2 vs 3)")
    (fun () -> ignore (Vec.add [| 1.; 2. |] [| 1.; 2.; 3. |]))

(* ------------------------------------------------------------------ *)
(* Mat                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mat_matmul_identity () =
  let a = Mat.init 3 3 (fun i j -> float_of_int ((i * 3) + j)) in
  let i3 = Mat.eye 3 in
  let prod = Mat.matmul a i3 in
  Alcotest.(check (array (float 1e-12))) "A·I = A" (Mat.to_array a) (Mat.to_array prod)

let test_mat_matmul_known () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_rows [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Mat.matmul a b in
  Alcotest.(check (array (float 1e-12))) "2x2 product" [| 19.; 22.; 43.; 50. |] (Mat.to_array c)

(* The oracle's transpose, which the product properties below rest on. *)
let test_mat_transpose_involution () =
  let a = Mat.init 3 5 (fun i j -> float_of_int (i + (10 * j))) in
  let att = Oracle.transpose (Oracle.transpose a) in
  Alcotest.(check (array (float 1e-12))) "transpose twice" (Mat.to_array a) (Mat.to_array att)

let test_mat_vec () =
  let a = Mat.of_rows [| [| 1.; 0.; 2. |]; [| 0.; 3.; 0. |] |] in
  Alcotest.(check (array (float 1e-12))) "A·x" [| 7.; 6. |] (Mat.mat_vec a [| 1.; 2.; 3. |]);
  Alcotest.(check (array (float 1e-12))) "xᵀ·A" [| 1.; 6.; 2. |] (Mat.vec_mat [| 1.; 2. |] a)

let spd_matrix n seed =
  (* A·Aᵀ + n·I is symmetric positive definite. *)
  let rng = Rng.create seed in
  let a = Mat.init n n (fun _ _ -> Rng.normal rng ()) in
  Mat.add_jitter (Mat.matmul a (Oracle.transpose a)) (float_of_int n)

let test_mat_cholesky_reconstruction () =
  let a = spd_matrix 6 123 in
  let l = Mat.cholesky a in
  let recon = Mat.matmul l (Oracle.transpose l) in
  Array.iteri
    (fun i x -> check_floatish (Printf.sprintf "entry %d" i) x recon.Mat.data.{i})
    (Mat.to_array a)

let test_mat_cholesky_solve () =
  let a = spd_matrix 5 55 in
  let x_true = [| 1.; -2.; 3.; 0.5; -1. |] in
  let b = Mat.mat_vec a x_true in
  let l = Mat.cholesky a in
  let x = Mat.cholesky_solve l b in
  Array.iteri (fun i xi -> check_floatish (Printf.sprintf "x%d" i) x_true.(i) xi) x

let test_mat_cholesky_rejects_indefinite () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  Alcotest.check_raises "indefinite" (Failure "Mat.cholesky: matrix not positive definite")
    (fun () -> ignore (Mat.cholesky a))

let test_mat_inverse_spd () =
  let a = spd_matrix 4 99 in
  let inv = Mat.inverse_spd a in
  let prod = Mat.matmul a inv in
  let i4 = Mat.eye 4 in
  Array.iteri
    (fun i x -> check_floatish (Printf.sprintf "entry %d" i) i4.Mat.data.{i} x)
    (Mat.to_array prod)

let test_mat_shape_errors () =
  let a = Mat.zeros 2 3 and b = Mat.zeros 2 2 in
  Alcotest.check_raises "matmul mismatch"
    (Invalid_argument "Mat.matmul: inner dimension mismatch (3 vs 2)") (fun () ->
      ignore (Mat.matmul a b))

(* ------------------------------------------------------------------ *)
(* Stat                                                                *)
(* ------------------------------------------------------------------ *)

let test_stat_basics () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Stat.mean xs);
  check_float "std" 2. (Stat.std xs);
  check_float "median" 4.5 (Stat.median xs);
  check_float "min" 2. (Stat.min xs);
  check_float "max" 9. (Stat.max xs);
  (* median of |2,4,4,4,5,5,7,9| deviations from median 4.5 is
     median of |2.5,.5,.5,.5,.5,.5,2.5,4.5| = 0.5 *)
  check_float "mad" 0.5 (Stat.mad xs);
  check_float "mad constant" 0. (Stat.mad [| 3.; 3.; 3. |])

let test_stat_quantile_interp () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "q0" 1. (Stat.quantile xs 0.);
  check_float "q1" 4. (Stat.quantile xs 1.);
  check_float "q1/3" 2. (Stat.quantile xs (1. /. 3.))

let test_stat_quantile_nan_policy () =
  (* Polymorphic compare is not a total order with NaN and used to corrupt
     the sort silently; the pinned policy is that any NaN sample makes the
     quantile (and median/mad) NaN — never a wrong-but-finite statistic. *)
  let with_nan = [| 3.; Float.nan; 1.; 2. |] in
  Alcotest.(check bool) "quantile propagates NaN" true
    (Float.is_nan (Stat.quantile with_nan 0.5));
  Alcotest.(check bool) "median propagates NaN" true
    (Float.is_nan (Stat.median with_nan));
  Alcotest.(check bool) "mad propagates NaN" true (Float.is_nan (Stat.mad with_nan));
  (* NaN-free inputs are untouched by the total-order sort. *)
  check_float "clean input unchanged" 2.5 (Stat.median [| 3.; 1.; 2.; 4. |])

let test_stat_min_max_norm () =
  check_float "lo" 0. (Stat.min_max_norm ~lo:10. ~hi:20. 10.);
  check_float "hi" 1. (Stat.min_max_norm ~lo:10. ~hi:20. 20.);
  check_float "mid" 0.5 (Stat.min_max_norm ~lo:10. ~hi:20. 15.);
  check_float "degenerate" 0.5 (Stat.min_max_norm ~lo:5. ~hi:5. 5.)

let test_stat_moving_average () =
  let xs = [| 0.; 10.; 0.; 10.; 0. |] in
  let sm = Stat.moving_average 1 xs in
  check_float "interior smoothed" (10. /. 3.) sm.(1);
  check_float "edge window shrinks" 5. sm.(0);
  Alcotest.(check int) "same length" 5 (Array.length sm)

let test_stat_pearson () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "perfect positive" 1. (Stat.pearson xs (Array.map (fun x -> (2. *. x) +. 1.) xs));
  check_float "perfect negative" (-1.) (Stat.pearson xs (Array.map (fun x -> -.x) xs));
  check_float "constant input" 0. (Stat.pearson xs [| 5.; 5.; 5.; 5. |])

let test_stat_normalized_mae () =
  let targets = [| 0.; 10. |] and preds = [| 1.; 9. |] in
  check_float "nmae" 0.1 (Stat.normalized_mae preds targets);
  (* Regression: the empty case used to hit [Stat.max] (which
     [invalid_arg]s on [||]) before the empty-safe [mae] could return 0. *)
  check_float "empty input is 0, not invalid_arg" 0. (Stat.normalized_mae [||] [||]);
  check_float "degenerate range falls back to mae" 1.
    (Stat.normalized_mae [| 4.; 6. |] [| 5.; 5. |])

(* ------------------------------------------------------------------ *)
(* Dataset                                                             *)
(* ------------------------------------------------------------------ *)

let test_dataset_roundtrip () =
  let d = Dataset.create () in
  Dataset.add d [| 1.; 2. |] ~target:10. ~crashed:false;
  Dataset.add d [| 3.; 4. |] ~target:0. ~crashed:true;
  Dataset.add d [| 5.; 6. |] ~target:20. ~crashed:false;
  Alcotest.(check int) "size" 3 (Dataset.size d);
  let r0 = Dataset.row d 0 in
  check_float "insertion order preserved" 10. r0.Dataset.targets.(0);
  Alcotest.(check bool) "crash flag" true (Dataset.row d 1).Dataset.crashed

let test_dataset_normalizer () =
  let d = Dataset.create () in
  Dataset.add d [| 0.; 100. |] ~target:10. ~crashed:false;
  Dataset.add d [| 10.; 300. |] ~target:30. ~crashed:false;
  Dataset.add d [| 20.; 200. |] ~target:999. ~crashed:true;
  let nz = Dataset.fit_normalizer d in
  (* Target stats use only the two non-crashed rows. *)
  check_float "t_mean" 20. nz.Dataset.t_means.(0);
  check_float "t_std" 10. nz.Dataset.t_stds.(0);
  check_float "feature 0 mean" 10. nz.Dataset.means.(0);
  check_float "feature 1 mean" 200. nz.Dataset.means.(1);
  check_float "target roundtrip" 42.
    (Dataset.denormalize_target nz ~metric:0 (Dataset.normalize_target nz ~metric:0 42.))

(* The two-sweep normalizer against the per-column [Stat.zscore_params]
   fold it replaced: one to 30 rows (a fifth of the cases one row, which
   makes every column constant), a constant column among the features
   (the epsilon clamp), one to three targets, none, some or all rows
   crashed, and signed zeros and non-finite values among the features. *)
let prop_normalizer_matches_oracle =
  QCheck2.Test.make ~name:"fit_normalizer bitwise equals the per-column zscore_params fold"
    ~count:300
    QCheck2.Gen.(
      quad (frequency [ (1, pure 1); (4, int_range 2 30) ]) (int_range 1 12) (int_range 1 3)
        (int_range 0 10000))
    (fun (n, d, k, seed) ->
      let rng = Rng.create seed in
      let ds = Dataset.create () in
      let constant = Oracle.value rng and crash_share = Rng.int rng 5 in
      for _ = 1 to n do
        let features =
          Array.init d (fun j -> if j = 0 then constant else Oracle.value ~special:true rng)
        in
        let targets = Array.init k (fun _ -> Oracle.value rng) in
        Dataset.add_targets ds features ~targets ~crashed:(Rng.int rng 4 < crash_share)
      done;
      let got = Dataset.fit_normalizer ds and want = Oracle.fit_normalizer (Dataset.rows ds) in
      let same a b = Array.map Oracle.bits a = Array.map Oracle.bits b in
      same got.Dataset.means want.Dataset.means
      && same got.Dataset.stds want.Dataset.stds
      && same got.Dataset.t_means want.Dataset.t_means
      && same got.Dataset.t_stds want.Dataset.t_stds
      && got.Dataset.stds.(0) = Stat.epsilon_std)

let test_dataset_k_targets () =
  let d = Dataset.create () in
  Dataset.add_targets d [| 0. |] ~targets:[| 10.; -1. |] ~crashed:false;
  Dataset.add_targets d [| 1. |] ~targets:[| 30.; -5. |] ~crashed:false;
  Dataset.add_targets d [| 2. |] ~targets:[| 0.; 0. |] ~crashed:true;
  Alcotest.(check int) "target_dim" 2 (Dataset.target_dim d);
  let nz = Dataset.fit_normalizer d in
  check_float "metric 0 mean" 20. nz.Dataset.t_means.(0);
  check_float "metric 1 mean" (-3.) nz.Dataset.t_means.(1);
  check_float "metric 1 std" 2. nz.Dataset.t_stds.(1);
  check_float "metric 1 roundtrip" 7.
    (Dataset.denormalize_target nz ~metric:1 (Dataset.normalize_target nz ~metric:1 7.));
  let rejects name f =
    Alcotest.(check bool) name true (try f (); false with Invalid_argument _ -> true)
  in
  rejects "one-target row after two-target rows" (fun () ->
      Dataset.add d [| 3. |] ~target:1. ~crashed:false);
  rejects "three-target row after two-target rows" (fun () ->
      Dataset.add_targets d [| 3. |] ~targets:[| 1.; 2.; 3. |] ~crashed:false);
  rejects "no targets" (fun () ->
      Dataset.add_targets (Dataset.create ()) [| 3. |] ~targets:[||] ~crashed:false);
  Alcotest.(check int) "rejected rows not added" 3 (Dataset.size d)

let test_dataset_batches_cover () =
  let d = Dataset.create () in
  for i = 0 to 24 do
    Dataset.add d [| float_of_int i |] ~target:(float_of_int i) ~crashed:false
  done;
  let rng = Rng.create 77 in
  let bs = Dataset.batches d rng ~batch_size:7 in
  let total = List.fold_left (fun acc b -> acc + Array.length b) 0 bs in
  Alcotest.(check int) "covers all rows" 25 total;
  let seen = Hashtbl.create 25 in
  List.iter (fun b -> Array.iter (fun r -> Hashtbl.replace seen r.Dataset.targets.(0) ()) b) bs;
  Alcotest.(check int) "each row once" 25 (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let float_array_gen =
  QCheck2.Gen.(array_size (int_range 1 20) (float_range (-100.) 100.))

let pair_same_len_gen =
  QCheck2.Gen.(
    int_range 1 20 >>= fun n ->
    pair (array_size (return n) (float_range (-50.) 50.)) (array_size (return n) (float_range (-50.) 50.)))

let prop_vec_add_commutes =
  QCheck2.Test.make ~name:"vec add commutes" ~count:200 pair_same_len_gen (fun (a, b) ->
      Vec.add a b = Vec.add b a)

let prop_vec_dot_symmetric =
  QCheck2.Test.make ~name:"vec dot symmetric" ~count:200 pair_same_len_gen (fun (a, b) ->
      abs_float (Vec.dot a b -. Vec.dot b a) < 1e-9)

let prop_vec_triangle_inequality =
  QCheck2.Test.make ~name:"vec triangle inequality" ~count:200
    QCheck2.Gen.(
      int_range 1 10 >>= fun n ->
      triple
        (array_size (return n) (float_range (-50.) 50.))
        (array_size (return n) (float_range (-50.) 50.))
        (array_size (return n) (float_range (-50.) 50.)))
    (fun (a, b, c) -> Vec.dist a c <= Vec.dist a b +. Vec.dist b c +. 1e-9)

let prop_stat_mean_bounded =
  QCheck2.Test.make ~name:"mean within [min,max]" ~count:200 float_array_gen (fun xs ->
      let m = Stat.mean xs in
      m >= Stat.min xs -. 1e-9 && m <= Stat.max xs +. 1e-9)

let prop_stat_zscore_normalizes =
  QCheck2.Test.make ~name:"zscore yields mean 0 std <=1+eps" ~count:200 float_array_gen (fun xs ->
      let m, s = Stat.zscore_params xs in
      let zs = Array.map (Stat.zscore ~mean:m ~std:s) xs in
      abs_float (Stat.mean zs) < 1e-6 && Stat.std zs <= 1. +. 1e-6)

let prop_moving_average_preserves_bounds =
  QCheck2.Test.make ~name:"moving average stays within data bounds" ~count:200 float_array_gen
    (fun xs ->
      let sm = Stat.moving_average 2 xs in
      let lo = Stat.min xs -. 1e-9 and hi = Stat.max xs +. 1e-9 in
      Array.for_all (fun x -> x >= lo && x <= hi) sm)

(* One sorted copy for many quantiles: bit for bit [quantile] at each
   [q], on inputs with duplicates, NaN and a single sample. *)
let prop_quantiles_match_quantile =
  QCheck2.Test.make ~name:"quantiles bitwise equal quantile" ~count:500
    QCheck2.Gen.(
      pair
        (array_size (int_range 1 40)
           (frequency
              [ (6, oneofl [ 0.; -0.; 1.; 2.5; 2.5; 1e-300; infinity; neg_infinity ]);
                (6, float_range (-1e3) 1e3); (1, pure Float.nan) ]))
        (array_size (int_range 0 6)
           (oneof [ oneofl [ 0.; 1.; 0.5; 0.95; 0.99; 1. /. 3. ]; float_range 0. 1. ])))
    (fun (xs, qs) ->
      let bits = Array.map Int64.bits_of_float in
      let raises qs =
        match Stat.quantiles xs qs with _ -> false | exception Invalid_argument _ -> true
      in
      bits (Stat.quantiles xs qs) = bits (Array.map (Stat.quantile xs) qs)
      && raises [| 0.5; 1.5 |] && raises [| -0.1 |]
      && match Stat.quantiles [||] qs with _ -> false | exception Invalid_argument _ -> true)

let prop_cholesky_roundtrip =
  QCheck2.Test.make ~name:"cholesky reconstructs SPD matrix" ~count:50
    QCheck2.Gen.(pair (int_range 1 8) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let a = Mat.init n n (fun _ _ -> Rng.normal rng ()) in
      let spd = Mat.add_jitter (Mat.matmul a (Oracle.transpose a)) (float_of_int n) in
      let l = Mat.cholesky spd in
      let recon = Mat.matmul l (Oracle.transpose l) in
      let ok = ref true in
      Array.iteri (fun i x -> if abs_float (x -. recon.Mat.data.{i}) > 1e-6 then ok := false) (Mat.to_array spd);
      !ok)

(* The factorization and forward substitution as they were written
   before they indexed storage unchecked; [Mat.cholesky] and the
   four-row [Mat.solve_lower] must match them bit for bit. *)
let reference_cholesky a =
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

let reference_solve_lower l b =
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

let prop_cholesky_bitwise_reference =
  QCheck2.Test.make ~name:"cholesky and solve_lower bitwise equal the reference" ~count:100
    QCheck2.Gen.(pair (int_range 1 40) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let a = Mat.init n n (fun _ _ -> Rng.normal rng ()) in
      let spd = Mat.add_jitter (Mat.matmul a (Oracle.transpose a)) 1e-3 in
      let b = Array.init n (fun _ -> Rng.normal rng ()) in
      let bits = Array.map Int64.bits_of_float in
      let l = Mat.cholesky spd in
      bits (Mat.to_array l) = bits (Mat.to_array (reference_cholesky spd))
      && bits (Mat.solve_lower l b) = bits (reference_solve_lower l b))

(* ------------------------------------------------------------------ *)
(* Domain_pool                                                         *)
(* ------------------------------------------------------------------ *)

let with_pool n f =
  let pool = Domain_pool.create n in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () -> f pool)

let test_pool_parallel_for_covers () =
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          List.iter
            (fun n ->
              let hits = Array.make (max n 1) 0 in
              Domain_pool.parallel_for pool n (fun lo hi ->
                  for i = lo to hi - 1 do
                    (* Disjoint ranges: no two lanes touch the same index,
                       so unsynchronized writes are safe. *)
                    hits.(i) <- hits.(i) + 1
                  done);
              Alcotest.(check bool)
                (Printf.sprintf "size %d, n %d: each index exactly once" size n)
                true
                (Array.for_all (fun c -> c = 1) (Array.sub hits 0 n)))
            [ 0; 1; 7; 64; 1000 ]))
    [ 1; 2; 4 ]

let test_pool_exception_propagates () =
  with_pool 4 (fun pool ->
      Alcotest.(check bool) "chunk exception re-raised on caller" true
        (try
           Domain_pool.parallel_for pool 100 (fun lo _ ->
               if lo = 0 then failwith "boom");
           false
         with Failure _ -> true);
      (* The pool survives a failed job. *)
      let total = ref 0 in
      let mu = Mutex.create () in
      Domain_pool.parallel_for pool 10 (fun lo hi ->
          Mutex.lock mu;
          total := !total + (hi - lo);
          Mutex.unlock mu);
      Alcotest.(check int) "pool alive after exception" 10 !total)

let test_pool_nested_runs_inline () =
  with_pool 2 (fun pool ->
      let acc = Array.make 16 0 in
      Domain_pool.parallel_for pool 4 (fun lo hi ->
          for i = lo to hi - 1 do
            (* A nested call must degrade to inline execution instead of
               deadlocking on the busy pool. *)
            Domain_pool.parallel_for pool 4 (fun lo' hi' ->
                for j = lo' to hi' - 1 do
                  acc.((i * 4) + j) <- 1
                done)
          done);
      Alcotest.(check bool) "all nested indices covered" true
        (Array.for_all (fun c -> c = 1) acc))

let test_pool_shutdown_degrades_inline () =
  let pool = Domain_pool.create 4 in
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool;
  let hits = ref 0 in
  Domain_pool.parallel_for pool 5 (fun lo hi -> hits := !hits + (hi - lo));
  Alcotest.(check int) "inline after shutdown" 5 !hits

let test_pool_matmul_bitwise_deterministic () =
  (* The load-bearing guarantee behind --domains: pooled matmul is bitwise
     the sequential product, for any pool size and chunking. *)
  let rng = Rng.create 11 in
  let mk r c = Mat.init r c (fun _ _ -> Rng.normal rng ()) in
  let a = mk 37 53 and b = mk 53 29 in
  let seq = Mat.matmul a b in
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          Domain_pool.with_default (Some pool) (fun () ->
              let par = Mat.matmul a b in
              Alcotest.(check bool)
                (Printf.sprintf "pool size %d bitwise equal" size)
                true
                (Mat.to_array seq = Mat.to_array par))))
    [ 1; 2; 4 ];
  Alcotest.(check bool) "ambient default restored" true (Domain_pool.get_default () = None)

let prop_permutation_valid =
  QCheck2.Test.make ~name:"permutation is a bijection" ~count:100
    QCheck2.Gen.(pair (int_range 1 100) (int_range 0 10000))
    (fun (n, seed) ->
      let p = Array.init n (fun i -> i) in
      Rng.shuffle (Rng.create seed) p;
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

(* One pool per size, shared by every case below. *)
let pools = List.map Domain_pool.create [ 1; 2; 4 ]
let () = at_exit (fun () -> List.iter Domain_pool.shutdown pools)

(* m, n and k in 0–13 cover every row and column remainder of the 2×4
   blocks; [grow] adds (32, 40, 30) so the product clears the pool's flop
   threshold and its rows really split across lanes.  Each product must
   equal the scalar matmul of the explicitly transposed operands, with
   no pool and under pools of 1, 2 and 4 lanes. *)
let prop_products_match_oracle =
  QCheck2.Test.make ~name:"matmul, matmul_nt, matmul_tn bitwise equal transpose + scalar matmul"
    ~count:150
    QCheck2.Gen.(
      pair
        (triple (int_range 0 13) (int_range 0 13) (int_range 0 13))
        (pair bool (int_range 0 10000)))
    (fun ((m, n, k), (grow, seed)) ->
      let m, n, k = if grow then (m + 32, n + 40, k + 30) else (m, n, k) in
      let rng = Rng.create seed in
      let a = Oracle.random_mat rng m k and b = Oracle.random_mat rng k n in
      let bt = Oracle.random_mat rng n k and at = Oracle.random_mat rng k m in
      let want = Oracle.matmul a b in
      let want_nt = Oracle.matmul a (Oracle.transpose bt) in
      let want_tn = Oracle.matmul (Oracle.transpose at) b in
      let check () =
        Oracle.same_bits want (Mat.matmul a b)
        && Oracle.same_bits want_nt (Mat.matmul_nt a bt)
        && Oracle.same_bits want_tn (Mat.matmul_tn at b)
        && Oracle.same_bits (Oracle.transpose a) (Oracle.transpose a)
      in
      check () && List.for_all (fun pool -> Domain_pool.with_default (Some pool) check) pools)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_vec_add_commutes; prop_vec_dot_symmetric; prop_vec_triangle_inequality;
      prop_stat_mean_bounded; prop_stat_zscore_normalizes; prop_moving_average_preserves_bounds;
      prop_cholesky_roundtrip; prop_cholesky_bitwise_reference; prop_permutation_valid;
      prop_products_match_oracle; prop_normalizer_matches_oracle; prop_quantiles_match_quantile ]

let () =
  Alcotest.run "tensor"
    [ ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed zero well mixed" `Quick test_rng_seed_zero_well_mixed;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_is_permutation;
          Alcotest.test_case "sample without replacement" `Quick test_rng_sample_without_replacement;
          Alcotest.test_case "invalid arguments" `Quick test_rng_invalid_args;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
          Alcotest.test_case "bernoulli allocates nothing" `Quick
            test_rng_bernoulli_allocates_nothing;
          QCheck_alcotest.to_alcotest rng_matches_boxed_splitmix;
          QCheck_alcotest.to_alcotest prop_bernoulli_is_float_below ] );
      ( "vec",
        [ Alcotest.test_case "basic algebra" `Quick test_vec_basic_algebra;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "extremes" `Quick test_vec_extremes;
          Alcotest.test_case "dimension mismatch" `Quick test_vec_dim_mismatch ] );
      ( "mat",
        [ Alcotest.test_case "matmul identity" `Quick test_mat_matmul_identity;
          Alcotest.test_case "matmul known" `Quick test_mat_matmul_known;
          Alcotest.test_case "transpose involution" `Quick test_mat_transpose_involution;
          Alcotest.test_case "mat-vec products" `Quick test_mat_vec;
          Alcotest.test_case "cholesky reconstruction" `Quick test_mat_cholesky_reconstruction;
          Alcotest.test_case "cholesky solve" `Quick test_mat_cholesky_solve;
          Alcotest.test_case "cholesky rejects indefinite" `Quick test_mat_cholesky_rejects_indefinite;
          Alcotest.test_case "inverse SPD" `Quick test_mat_inverse_spd;
          Alcotest.test_case "shape errors" `Quick test_mat_shape_errors ] );
      ( "stat",
        [ Alcotest.test_case "basics" `Quick test_stat_basics;
          Alcotest.test_case "quantile interpolation" `Quick test_stat_quantile_interp;
          Alcotest.test_case "quantile NaN policy" `Quick test_stat_quantile_nan_policy;
          Alcotest.test_case "min-max norm" `Quick test_stat_min_max_norm;
          Alcotest.test_case "moving average" `Quick test_stat_moving_average;
          Alcotest.test_case "pearson" `Quick test_stat_pearson;
          Alcotest.test_case "normalized MAE" `Quick test_stat_normalized_mae ] );
      ( "domain_pool",
        [ Alcotest.test_case "parallel_for covers every index" `Quick
            test_pool_parallel_for_covers;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "nested calls run inline" `Quick test_pool_nested_runs_inline;
          Alcotest.test_case "shutdown degrades inline" `Quick
            test_pool_shutdown_degrades_inline;
          Alcotest.test_case "pooled matmul bitwise deterministic" `Quick
            test_pool_matmul_bitwise_deterministic ] );
      ( "dataset",
        [ Alcotest.test_case "roundtrip" `Quick test_dataset_roundtrip;
          Alcotest.test_case "normalizer" `Quick test_dataset_normalizer;
          Alcotest.test_case "batches cover" `Quick test_dataset_batches_cover;
          Alcotest.test_case "k targets" `Quick test_dataset_k_targets ] );
      ("properties", qcheck_cases) ]
