open Wayfinder_forest
module Mat = Wayfinder_tensor.Mat
module Rng = Wayfinder_tensor.Rng
module Stat = Wayfinder_tensor.Stat

(* y depends strongly on feature 0, weakly on feature 1, not at all on 2. *)
let synthetic_data rng n =
  let x = Mat.init n 3 (fun _ _ -> Rng.uniform rng 0. 1.) in
  let y =
    Array.init n (fun i ->
        (10. *. Mat.get x i 0) +. (1. *. Mat.get x i 1) +. Rng.normal rng ~sigma:0.05 ())
  in
  (x, y)

let test_tree_fits_step_function () =
  let rng = Rng.create 1 in
  let x = Mat.init 100 1 (fun i _ -> float_of_int i /. 100.) in
  let y = Array.init 100 (fun i -> if i < 50 then 0. else 1.) in
  let tree = Tree.fit rng x y in
  Alcotest.(check (float 1e-6)) "left side" 0. (Tree.predict tree [| 0.2 |]);
  Alcotest.(check (float 1e-6)) "right side" 1. (Tree.predict tree [| 0.8 |])

let test_tree_respects_max_depth () =
  let rng = Rng.create 2 in
  let x = Mat.init 200 1 (fun i _ -> float_of_int i) in
  let y = Array.init 200 (fun i -> float_of_int (i mod 7)) in
  let tree = Tree.fit ~max_depth:3 rng x y in
  Alcotest.(check bool) "depth bounded" true (Tree.depth tree <= 3)

let test_tree_constant_target_is_leaf () =
  let rng = Rng.create 3 in
  let x = Mat.init 20 2 (fun i j -> float_of_int (i + j)) in
  let y = Array.make 20 5. in
  let tree = Tree.fit rng x y in
  Alcotest.(check int) "single leaf" 0 (Tree.depth tree);
  Alcotest.(check (float 1e-9)) "predicts the constant" 5. (Tree.predict tree [| 0.; 0. |])

let test_tree_importance_identifies_signal () =
  let rng = Rng.create 4 in
  let x, y = synthetic_data rng 300 in
  let tree = Tree.fit rng x y in
  let acc = Array.make 3 0. in
  Tree.accumulate_importance tree acc;
  Alcotest.(check bool) "feature 0 dominates" true (acc.(0) > acc.(1) && acc.(0) > acc.(2))

let test_tree_input_validation () =
  let rng = Rng.create 5 in
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Tree.fit rng (Mat.zeros 0 2) [||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "mismatch rejected" true
    (try
       ignore (Tree.fit rng (Mat.zeros 3 2) [| 1. |]);
       false
     with Invalid_argument _ -> true)

let test_forest_predicts_well () =
  let rng = Rng.create 6 in
  let x, y = synthetic_data rng 400 in
  let x_test, y_test = synthetic_data rng 100 in
  let forest = Forest.fit ~n_trees:32 rng x y in
  let r2 = Forest.r_squared forest x_test y_test in
  Alcotest.(check bool) (Printf.sprintf "r² = %.3f > 0.9" r2) true (r2 > 0.9)

let test_forest_importance_normalised () =
  let rng = Rng.create 7 in
  let x, y = synthetic_data rng 300 in
  let forest = Forest.fit ~n_trees:16 rng x y in
  let imp = Forest.importance forest in
  Alcotest.(check (float 1e-9)) "sums to 1" 1. (Array.fold_left ( +. ) 0. imp);
  Alcotest.(check bool) "signal feature dominates" true (imp.(0) > 0.6);
  Alcotest.(check bool) "noise feature negligible" true (imp.(2) < 0.1)

let test_forest_importance_similarity () =
  let a = [| 0.8; 0.1; 0.1 |] in
  let b = [| 0.8; 0.1; 0.1 |] in
  let c = [| 0.0; 0.1; 0.9 |] in
  Alcotest.(check (float 1e-9)) "identical → 1" 1. (Forest.importance_similarity a b);
  Alcotest.(check bool) "different < identical" true
    (Forest.importance_similarity a c < Forest.importance_similarity a b);
  Alcotest.(check bool) "bounded" true
    (let s = Forest.importance_similarity a c in
     s > 0. && s < 1.)

let test_forest_similar_tasks_have_similar_importance () =
  (* Two "applications" whose performance depends on the same features
     should land close in importance space; a third depending on other
     features should not (the Figure 5 intuition). *)
  let rng = Rng.create 8 in
  let n = 300 in
  let x = Mat.init n 4 (fun _ _ -> Rng.uniform rng 0. 1.) in
  let y_app1 = Array.init n (fun i -> (5. *. Mat.get x i 0) +. Mat.get x i 1) in
  let y_app2 = Array.init n (fun i -> (4. *. Mat.get x i 0) +. (1.5 *. Mat.get x i 1)) in
  let y_app3 = Array.init n (fun i -> (5. *. Mat.get x i 2) +. Mat.get x i 3) in
  let importance y =
    Forest.importance (Forest.fit ~n_trees:16 rng x y)
  in
  let i1 = importance y_app1 and i2 = importance y_app2 and i3 = importance y_app3 in
  Alcotest.(check bool) "related apps closer than unrelated" true
    (Forest.importance_similarity i1 i2 > Forest.importance_similarity i1 i3)

let prop_forest_importance_is_distribution =
  QCheck2.Test.make ~name:"importance is a probability vector" ~count:20
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let rng = Rng.create seed in
      let x, y = synthetic_data rng 100 in
      let imp = Forest.importance (Forest.fit ~n_trees:8 rng x y) in
      let total = Array.fold_left ( +. ) 0. imp in
      Array.for_all (fun v -> v >= 0.) imp && abs_float (total -. 1.) < 1e-9)

let prop_tree_prediction_within_target_range =
  QCheck2.Test.make ~name:"tree predictions stay within target range" ~count:30
    QCheck2.Gen.(pair (int_range 0 10000) (float_range (-5.) 5.))
    (fun (seed, q) ->
      let rng = Rng.create seed in
      let x, y = synthetic_data rng 80 in
      let tree = Tree.fit rng x y in
      let p = tree |> fun t -> Tree.predict t [| q; q; q |] in
      p >= Stat.min y -. 1e-9 && p <= Stat.max y +. 1e-9)

let () =
  Alcotest.run "forest"
    [ ( "tree",
        [ Alcotest.test_case "fits step function" `Quick test_tree_fits_step_function;
          Alcotest.test_case "max depth" `Quick test_tree_respects_max_depth;
          Alcotest.test_case "constant target" `Quick test_tree_constant_target_is_leaf;
          Alcotest.test_case "importance finds signal" `Quick test_tree_importance_identifies_signal;
          Alcotest.test_case "input validation" `Quick test_tree_input_validation ] );
      ( "forest",
        [ Alcotest.test_case "prediction quality" `Quick test_forest_predicts_well;
          Alcotest.test_case "importance normalised" `Quick test_forest_importance_normalised;
          Alcotest.test_case "importance similarity" `Quick test_forest_importance_similarity;
          Alcotest.test_case "figure 5 intuition" `Quick test_forest_similar_tasks_have_similar_importance ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_forest_importance_is_distribution; prop_tree_prediction_within_target_range ] ) ]
