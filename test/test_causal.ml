open Wayfinder_causal
module Mat = Wayfinder_tensor.Mat
module Rng = Wayfinder_tensor.Rng

(* A known structure: x0 → x1 → x2 (chain), x3 independent noise.
   x0 ⊥ x2 | x1 must be discovered; x3 unconnected. *)
let chain_data rng n =
  Mat.of_rows
    (Array.init n (fun _ ->
         let x0 = Rng.normal rng () in
         let x1 = (0.9 *. x0) +. Rng.normal rng ~sigma:0.3 () in
         let x2 = (0.9 *. x1) +. Rng.normal rng ~sigma:0.3 () in
         let x3 = Rng.normal rng () in
         [| x0; x1; x2; x3 |]))

let test_correlation_matrix () =
  let rng = Rng.create 1 in
  let data = chain_data rng 500 in
  let corr = Citest.correlation_matrix data in
  Alcotest.(check (float 1e-9)) "diagonal" 1. (Mat.get corr 0 0);
  Alcotest.(check (float 1e-9)) "symmetric" (Mat.get corr 0 1) (Mat.get corr 1 0);
  Alcotest.(check bool) "x0-x1 strongly correlated" true (Mat.get corr 0 1 > 0.8);
  Alcotest.(check bool) "x3 uncorrelated" true (abs_float (Mat.get corr 0 3) < 0.15)

let test_partial_correlation_chain () =
  let rng = Rng.create 2 in
  let data = chain_data rng 2000 in
  let corr = Citest.correlation_matrix data in
  let marginal = Citest.partial_correlation corr 0 2 [] in
  let conditioned = Citest.partial_correlation corr 0 2 [ 1 ] in
  Alcotest.(check bool) "x0~x2 marginally dependent" true (abs_float marginal > 0.5);
  Alcotest.(check bool) "x0⊥x2 | x1" true (abs_float conditioned < 0.1)

let test_partial_correlation_validation () =
  let corr = Mat.eye 3 in
  Alcotest.(check bool) "endpoint in set rejected" true
    (try
       ignore (Citest.partial_correlation corr 0 1 [ 0 ]);
       false
     with Invalid_argument _ -> true)

let test_fisher_z () =
  (* Strong correlation on many samples: dependent. *)
  Alcotest.(check bool) "strong r rejected" false
    (Citest.fisher_z_independent ~r:0.9 ~n:100 ~cond:0 ~alpha:0.05);
  (* Weak correlation on few samples: cannot reject independence. *)
  Alcotest.(check bool) "weak r accepted" true
    (Citest.fisher_z_independent ~r:0.05 ~n:50 ~cond:0 ~alpha:0.05);
  (* Insufficient degrees of freedom: conservatively independent. *)
  Alcotest.(check bool) "low dof" true
    (Citest.fisher_z_independent ~r:0.99 ~n:4 ~cond:2 ~alpha:0.05)

let test_pc_skeleton_chain () =
  let rng = Rng.create 3 in
  let data = chain_data rng 2000 in
  let result = Pc.skeleton ~alpha:0.01 data in
  let adj = result.Pc.adjacency in
  Alcotest.(check bool) "x0-x1 edge kept" true adj.(0).(1);
  Alcotest.(check bool) "x1-x2 edge kept" true adj.(1).(2);
  Alcotest.(check bool) "x0-x2 edge removed" false adj.(0).(2);
  Alcotest.(check bool) "x3 isolated" true
    ((not adj.(3).(0)) && (not adj.(3).(1)) && not adj.(3).(2));
  (* The separating set for (0,2) should be {1}. *)
  (match Hashtbl.find_opt result.Pc.separating_sets (0, 2) with
   | Some [ 1 ] -> ()
   | Some s -> Alcotest.failf "unexpected sepset [%s]" (String.concat ";" (List.map string_of_int s))
   | None -> Alcotest.fail "no sepset recorded");
  Alcotest.(check (list int)) "x1's neighbours" [ 0; 2 ] (Pc.neighbors result 1)

let test_pc_stats_counted () =
  let rng = Rng.create 4 in
  let data = chain_data rng 300 in
  let result = Pc.skeleton data in
  Alcotest.(check bool) "tests counted" true (result.Pc.stats.Pc.ci_tests > 0);
  Alcotest.(check bool) "cells counted" true (result.Pc.stats.Pc.matrix_cells > 0);
  Alcotest.(check bool) "edges removed" true (result.Pc.stats.Pc.edges_removed > 0)

let test_pc_cost_grows_with_variables () =
  (* Per-refit CI-test count must grow superlinearly in the variable
     count on dense data — the scaling pathology of Figure 7. *)
  let rng = Rng.create 5 in
  let cost d =
    let data =
      Mat.init 80 d (fun _ _ -> Rng.normal rng ())
    in
    (* Make variables correlated so edges survive and conditioning sets
       must grow. *)
    let base = Mat.col data 0 in
    for i = 0 to 79 do
      for j = 1 to d - 1 do
        Mat.set data i j ((0.7 *. base.(i)) +. (0.3 *. Mat.get data i j))
      done
    done;
    (Pc.skeleton ~max_cond:2 data).Pc.stats.Pc.ci_tests
  in
  let c5 = cost 5 and c10 = cost 10 and c20 = cost 20 in
  Alcotest.(check bool) "monotone growth" true (c5 < c10 && c10 < c20);
  (* Superlinear: doubling variables should more than double tests. *)
  Alcotest.(check bool)
    (Printf.sprintf "superlinear (%d, %d, %d)" c5 c10 c20)
    true
    (float_of_int c20 /. float_of_int c10 > 2.)

(* A collider: x0 -> x2 <- x1 with x0 independent of x1. *)
let collider_data rng n =
  Mat.of_rows
    (Array.init n (fun _ ->
         let x0 = Rng.normal rng () in
         let x1 = Rng.normal rng () in
         let x2 = (0.7 *. x0) +. (0.7 *. x1) +. Rng.normal rng ~sigma:0.3 () in
         [| x0; x1; x2 |]))

let test_pc_orients_v_structure () =
  let rng = Rng.create 8 in
  let data = collider_data rng 1500 in
  let result = Pc.skeleton ~alpha:0.01 data in
  Alcotest.(check bool) "0-2 edge" true result.Pc.adjacency.(0).(2);
  Alcotest.(check bool) "1-2 edge" true result.Pc.adjacency.(1).(2);
  Alcotest.(check bool) "no 0-1 edge" false result.Pc.adjacency.(0).(1);
  let cpdag = Pc.orient result in
  Alcotest.(check bool) "x0 -> x2" true cpdag.Pc.directed.(0).(2);
  Alcotest.(check bool) "x1 -> x2" true cpdag.Pc.directed.(1).(2);
  Alcotest.(check bool) "not reversed" false cpdag.Pc.directed.(2).(0);
  Alcotest.(check (list int)) "parents of x2" [ 0; 1 ] (Pc.parents cpdag 2)

let test_pc_chain_stays_undirected () =
  (* A pure chain has no collider, so its CPDAG keeps the edges
     undirected. *)
  let rng = Rng.create 9 in
  let data = chain_data rng 1500 in
  let cpdag = Pc.orient (Pc.skeleton ~alpha:0.01 data) in
  Alcotest.(check bool) "0-1 undirected" true cpdag.Pc.undirected.(0).(1);
  Alcotest.(check bool) "1-2 undirected" true cpdag.Pc.undirected.(1).(2);
  Alcotest.(check (list int)) "no parents inferred" [] (Pc.parents cpdag 1)

let test_unicorn_driver () =
  let rng = Rng.create 6 in
  let u = Unicorn.create ~n_vars:4 () in
  Alcotest.(check bool) "refit needs data" true
    (try
       ignore (Unicorn.refit u);
       false
     with Invalid_argument _ -> true);
  let data = chain_data rng 200 in
  for i = 0 to 199 do
    Unicorn.add_observation u (Mat.row data i)
  done;
  let cost = Unicorn.refit u in
  Alcotest.(check bool) "wall time recorded" true (cost.Unicorn.wall_seconds >= 0.);
  Alcotest.(check int) "stored cells" 800 cost.Unicorn.stored_cells

let test_unicorn_cost_grows_with_history () =
  (* Memory (stored cells) grows linearly with observations and the refit
     recomputes everything — the "lack of incremental training" of §2.3. *)
  let rng = Rng.create 7 in
  let u = Unicorn.create ~n_vars:4 () in
  let data = chain_data rng 400 in
  let costs = ref [] in
  for i = 0 to 399 do
    Unicorn.add_observation u (Mat.row data i);
    if (i + 1) mod 100 = 0 then costs := Unicorn.refit u :: !costs
  done;
  match List.rev !costs with
  | [ c1; c2; c3; c4 ] ->
    Alcotest.(check bool) "stored cells grow" true
      (c1.Unicorn.stored_cells < c2.Unicorn.stored_cells
      && c2.Unicorn.stored_cells < c3.Unicorn.stored_cells
      && c3.Unicorn.stored_cells < c4.Unicorn.stored_cells)
  | _ -> Alcotest.fail "expected four refits"

let test_unicorn_rejects_bad_row () =
  let u = Unicorn.create ~n_vars:3 () in
  Alcotest.(check bool) "wrong width" true
    (try
       Unicorn.add_observation u [| 1.; 2. |];
       false
     with Invalid_argument _ -> true)

let prop_skeleton_adjacency_symmetric =
  QCheck2.Test.make ~name:"skeleton adjacency is symmetric and irreflexive" ~count:20
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let rng = Rng.create seed in
      let data = chain_data rng 150 in
      let result = Pc.skeleton data in
      let adj = result.Pc.adjacency in
      let ok = ref true in
      for i = 0 to 3 do
        if adj.(i).(i) then ok := false;
        for j = 0 to 3 do
          if adj.(i).(j) <> adj.(j).(i) then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "causal"
    [ ( "citest",
        [ Alcotest.test_case "correlation matrix" `Quick test_correlation_matrix;
          Alcotest.test_case "partial correlation on chain" `Quick test_partial_correlation_chain;
          Alcotest.test_case "validation" `Quick test_partial_correlation_validation;
          Alcotest.test_case "fisher z" `Quick test_fisher_z ] );
      ( "pc",
        [ Alcotest.test_case "recovers chain skeleton" `Quick test_pc_skeleton_chain;
          Alcotest.test_case "stats counted" `Quick test_pc_stats_counted;
          Alcotest.test_case "cost grows superlinearly" `Quick test_pc_cost_grows_with_variables;
          Alcotest.test_case "orients v-structures" `Quick test_pc_orients_v_structure;
          Alcotest.test_case "chain stays undirected" `Quick test_pc_chain_stays_undirected ] );
      ( "unicorn",
        [ Alcotest.test_case "driver" `Quick test_unicorn_driver;
          Alcotest.test_case "cost grows with history" `Quick test_unicorn_cost_grows_with_history;
          Alcotest.test_case "rejects bad row" `Quick test_unicorn_rejects_bad_row ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_skeleton_adjacency_symmetric ]) ]
