open Wayfinder_deeptune
module P = Wayfinder_platform
module S = Wayfinder_simos
module CS = Wayfinder_configspace
module T = Wayfinder_tensor

(* ------------------------------------------------------------------ *)
(* Scoring (eqs. 2-3)                                                  *)
(* ------------------------------------------------------------------ *)

let test_scoring_dissimilarity () =
  Alcotest.(check (float 1e-9)) "empty set is fully novel" 1.
    (Scoring.dissimilarity [| 1.; 2. |] []);
  Alcotest.(check (float 1e-9)) "known point has zero dissimilarity" 0.
    (Scoring.dissimilarity [| 1.; 2. |] [ [| 1.; 2. |] ]);
  (* ds = 1 - 1/(1+d²) with nearest-sample distance. *)
  let ds = Scoring.dissimilarity [| 0. |] [ [| 1. |]; [| 10. |] ] in
  Alcotest.(check (float 1e-9)) "uses nearest" 0.5 ds;
  Alcotest.(check bool) "bounded" true (ds >= 0. && ds <= 1.)

let test_scoring_monotone_in_distance () =
  let known = [ [| 0.; 0. |] ] in
  let near = Scoring.dissimilarity [| 0.1; 0. |] known in
  let far = Scoring.dissimilarity [| 3.; 0. |] known in
  Alcotest.(check bool) "farther is more novel" true (far > near)

let test_scoring_alpha_balance () =
  Alcotest.(check (float 1e-9)) "alpha 1 is pure dissimilarity" 0.8
    (Scoring.score ~alpha:1. ~dissimilarity:0.8 ~uncertainty:0.2 ());
  Alcotest.(check (float 1e-9)) "alpha 0 is pure uncertainty" 0.2
    (Scoring.score ~alpha:0. ~dissimilarity:0.8 ~uncertainty:0.2 ());
  Alcotest.(check (float 1e-9)) "default alpha 0.5" 0.5
    (Scoring.score ~dissimilarity:0.8 ~uncertainty:0.2 ());
  Alcotest.(check bool) "alpha out of range rejected" true
    (try
       ignore (Scoring.score ~alpha:1.5 ~dissimilarity:0.5 ~uncertainty:0.5 ());
       false
     with Invalid_argument _ -> true)

(* 0–9 candidates (every remainder of the four-candidate blocks) against
   0–12 known vectors, some of them repeats of a candidate, with signed
   zeros and non-finite values among the coordinates. *)
let prop_dissimilarity_batch_matches_oracle =
  QCheck2.Test.make ~name:"dissimilarity_batch bitwise equals the per-candidate fold" ~count:300
    QCheck2.Gen.(quad (int_range 0 9) (int_range 0 12) (int_range 0 8) (int_range 0 10000))
    (fun (n, k, d, seed) ->
      let rng = T.Rng.create seed in
      let vec () = Array.init d (fun _ -> Oracle.value ~special:true rng) in
      let xs = Array.init n (fun _ -> vec ()) in
      let known =
        List.init k (fun _ ->
            if n > 0 && T.Rng.int rng 4 = 0 then Array.copy xs.(T.Rng.int rng n) else vec ())
      in
      let got = Scoring.dissimilarity_batch xs known in
      Array.length got = n
      && Array.for_all2
           (fun x g ->
             let want = Oracle.bits (Oracle.dissimilarity x known) in
             want = Oracle.bits g && want = Oracle.bits (Scoring.dissimilarity x known))
           xs got)

(* ------------------------------------------------------------------ *)
(* Seen set                                                            *)
(* ------------------------------------------------------------------ *)

let value_gen =
  QCheck2.Gen.(
    oneof
      [ map (fun b -> CS.Param.Vbool b) bool;
        map (fun i -> CS.Param.Vtristate i) (int_range 0 2);
        map (fun i -> CS.Param.Vint i) (int_range (-2) 2);
        map (fun i -> CS.Param.Vcat i) (int_range 0 2) ])

(* Membership is [config_key] equality: a base configuration of up to
   40 values, variants that change one position (perhaps to the value
   it had, or to another kind with the same payload) or drop the last
   one, half of them stored. *)
let prop_seen_matches_config_key =
  QCheck2.Test.make ~name:"seen-set membership equals config_key equality" ~count:300
    QCheck2.Gen.(
      pair
        (array_size (int_range 0 40) value_gen)
        (list_size (int_range 1 8) (triple nat value_gen bool)))
    (fun (base, edits) ->
      let variant (pos, v, drop) =
        let n = Array.length base in
        if n = 0 then [| v |]
        else if drop then Array.sub base 0 (n - 1)
        else begin
          let c = Array.copy base in
          c.(pos mod n) <- v;
          c
        end
      in
      let configs = base :: List.map variant edits in
      let stored = List.filteri (fun i _ -> i land 1 = 0) configs in
      let seen = Deeptune.Seen.create 8 in
      List.iter (fun c -> Deeptune.Seen.replace seen c ()) stored;
      List.for_all
        (fun probe ->
          let key = CS.Param.config_key probe in
          Deeptune.Seen.mem seen probe
          = List.exists (fun c -> CS.Param.config_key c = key) stored)
        configs)

(* DESIGN §13's regression: configurations equal up to their last
   position collide under [Hashtbl.hash], which stops after a bounded
   prefix, but are two keys of the seen set. *)
let test_seen_separates_last_position () =
  let a = Array.init 12 (fun _ -> CS.Param.Vint 1) in
  let b = Array.copy a in
  b.(11) <- CS.Param.Vint 2;
  Alcotest.(check bool) "truncated hash collides (the old bug)" true
    (Hashtbl.hash (Array.to_list a) = Hashtbl.hash (Array.to_list b));
  let seen = Deeptune.Seen.create 8 in
  Deeptune.Seen.replace seen a ();
  Alcotest.(check bool) "an equal copy is seen" true (Deeptune.Seen.mem seen (Array.copy a));
  Alcotest.(check bool) "the last position tells them apart" false (Deeptune.Seen.mem seen b)

(* ------------------------------------------------------------------ *)
(* DTM                                                                 *)
(* ------------------------------------------------------------------ *)

(* crash iff x0 > 0.8; performance = 3·x1 (+noise). *)
let synthetic_dataset rng n =
  let ds = T.Dataset.create () in
  for _ = 1 to n do
    let x0 = T.Rng.float rng 1.0 and x1 = T.Rng.float rng 1.0 in
    let crashed = x0 > 0.8 in
    let target = if crashed then 0. else (3. *. x1) +. T.Rng.normal rng ~sigma:0.05 () in
    T.Dataset.add ds [| x0; x1 |] ~target ~crashed
  done;
  ds

let trained_dtm ?(epochs = 150) () =
  let rng = T.Rng.create 1 in
  let ds = synthetic_dataset rng 300 in
  let dtm = Dtm.create (T.Rng.create 10) ~in_dim:2 in
  ignore (Dtm.train dtm ~epochs ds);
  (dtm, ds)

let test_dtm_create_validates_config () =
  let rejects name config =
    Alcotest.(check bool) name true
      (try
         ignore (Dtm.create ~config (T.Rng.create 0) ~in_dim:2);
         false
       with Invalid_argument _ -> true)
  in
  rejects "empty hidden spec" { Dtm.default_config with Dtm.hidden = [] };
  rejects "non-positive hidden width" { Dtm.default_config with Dtm.hidden = [ 16; 0 ] };
  rejects "non-positive centroids" { Dtm.default_config with Dtm.rbf_centroids = 0 };
  rejects "negative dropout" { Dtm.default_config with Dtm.dropout = -0.1 };
  rejects "dropout of 1 diverges" { Dtm.default_config with Dtm.dropout = 1. };
  rejects "non-positive learning rate" { Dtm.default_config with Dtm.learning_rate = 0. };
  (* in_dim is validated too. *)
  Alcotest.(check bool) "non-positive in_dim" true
    (try
       ignore (Dtm.create (T.Rng.create 0) ~in_dim:0);
       false
     with Invalid_argument _ -> true);
  (* The boundary cases stay legal. *)
  ignore (Dtm.create ~config:{ Dtm.default_config with Dtm.dropout = 0. } (T.Rng.create 0) ~in_dim:1)

let test_dtm_predict_batch_matches_predict () =
  (* The batched forward is the hot path of pool scoring: one matmul over
     all candidates must be bitwise the per-row prediction. *)
  let dtm, _ = trained_dtm ~epochs:30 () in
  let rng = T.Rng.create 99 in
  let xs = Array.init 17 (fun _ -> [| T.Rng.float rng 1.0; T.Rng.float rng 1.0 |]) in
  let batch = Dtm.predict_batch dtm xs in
  Alcotest.(check int) "one prediction per row" (Array.length xs) (Array.length batch);
  Array.iteri
    (fun i x ->
      let p = Dtm.predict dtm x in
      let b = batch.(i) in
      Alcotest.(check (float 0.)) "crash bitwise" p.Dtm.crash_probability
        b.Dtm.crash_probability;
      Alcotest.(check (array (float 0.))) "performance bitwise" p.Dtm.performances
        b.Dtm.performances;
      Alcotest.(check (float 0.)) "uncertainty bitwise" p.Dtm.uncertainty b.Dtm.uncertainty)
    xs;
  Alcotest.(check bool) "dimension mismatch rejected" true
    (try
       ignore (Dtm.predict_batch dtm [| [| 1. |] |]);
       false
     with Invalid_argument _ -> true)

let test_dtm_untrained_predicts () =
  let dtm = Dtm.create (T.Rng.create 3) ~in_dim:4 in
  let p = Dtm.predict dtm [| 0.1; 0.2; 0.3; 0.4 |] in
  Alcotest.(check bool) "crash prob in (0,1)" true
    (p.Dtm.crash_probability > 0. && p.Dtm.crash_probability < 1.);
  Alcotest.(check bool) "uncertainty in [0,1]" true
    (p.Dtm.uncertainty >= 0. && p.Dtm.uncertainty <= 1.)

let test_dtm_dimension_check () =
  let dtm = Dtm.create (T.Rng.create 3) ~in_dim:4 in
  Alcotest.(check bool) "wrong dim rejected" true
    (try
       ignore (Dtm.predict dtm [| 1. |]);
       false
     with Invalid_argument _ -> true)

let test_dtm_learns_crash_boundary () =
  let dtm, _ = trained_dtm () in
  let p_crash = (Dtm.predict dtm [| 0.95; 0.5 |]).Dtm.crash_probability in
  let p_safe = (Dtm.predict dtm [| 0.2; 0.5 |]).Dtm.crash_probability in
  Alcotest.(check bool)
    (Printf.sprintf "separates (%.2f vs %.2f)" p_crash p_safe)
    true
    (p_crash > 0.45 && p_safe < p_crash -. 0.2)

let test_dtm_learns_performance () =
  let dtm, _ = trained_dtm () in
  let perf_high = (Dtm.predict dtm [| 0.2; 0.9 |]).Dtm.performances.(0) in
  let perf_low = (Dtm.predict dtm [| 0.2; 0.1 |]).Dtm.performances.(0) in
  Alcotest.(check bool) "predicts ordering" true (perf_high > perf_low +. 1.);
  Alcotest.(check bool) "roughly calibrated" true
    (abs_float (perf_high -. 2.7) < 0.6 && abs_float (perf_low -. 0.3) < 0.6)

let test_dtm_uncertainty_higher_off_distribution () =
  let dtm, _ = trained_dtm () in
  (* Average in-distribution uncertainty vs a far outlier. *)
  let rng = T.Rng.create 9 in
  let in_dist = ref 0. in
  for _ = 1 to 50 do
    let x = [| T.Rng.float rng 1.0; T.Rng.float rng 1.0 |] in
    in_dist := !in_dist +. (Dtm.predict dtm x).Dtm.uncertainty
  done;
  let in_dist = !in_dist /. 50. in
  let outlier = (Dtm.predict dtm [| 30.; -30. |]).Dtm.uncertainty in
  Alcotest.(check bool)
    (Printf.sprintf "outlier %.3f > in-dist %.3f" outlier in_dist)
    true (outlier > in_dist);
  (* Inputs are clamped at ±6 z-scores, so the outlier response saturates
     below 1; it must still be clearly higher than in-distribution. *)
  Alcotest.(check bool)
    (Printf.sprintf "outlier %.3f well above in-dist %.3f" outlier in_dist)
    true
    (outlier > in_dist +. 0.15)

let test_dtm_accuracy_evaluation () =
  let dtm, ds = trained_dtm () in
  let acc = Dtm.evaluate dtm ds in
  Alcotest.(check bool) "failure accuracy high" true (acc.Dtm.failure_accuracy > 0.7);
  Alcotest.(check bool)
    (Printf.sprintf "mae %.3f small" acc.Dtm.normalized_mae)
    true (acc.Dtm.normalized_mae < 0.1)

let test_dtm_losses_decrease () =
  let rng = T.Rng.create 4 in
  let ds = synthetic_dataset rng 200 in
  let dtm = Dtm.create (T.Rng.create 5) ~in_dim:2 in
  let first = Dtm.train dtm ~epochs:1 ds in
  let later = Dtm.train dtm ~epochs:20 ds in
  Alcotest.(check bool) "cce decreases" true (later.Dtm.cce < first.Dtm.cce);
  Alcotest.(check bool) "reg decreases" true (later.Dtm.reg < first.Dtm.reg)

let test_dtm_empty_dataset_noop () =
  let dtm = Dtm.create (T.Rng.create 6) ~in_dim:2 in
  let l = Dtm.train dtm (T.Dataset.create ()) in
  Alcotest.(check (float 1e-12)) "zero loss" 0. l.Dtm.cce

let test_dtm_sensitivity_finds_signal () =
  let dtm, ds = trained_dtm () in
  let s = Dtm.feature_sensitivity dtm ds in
  (* Performance depends on x1 positively, not on x0. *)
  Alcotest.(check bool)
    (Printf.sprintf "x1 dominates (%.2f vs %.2f)" s.(1) s.(0))
    true
    (s.(1) > 1. && abs_float s.(0) < s.(1) /. 2.)

let test_dtm_snapshot_roundtrip () =
  let dtm, _ = trained_dtm () in
  let snap = Dtm.export dtm in
  let clone = Dtm.create (T.Rng.create 7) ~in_dim:2 in
  Dtm.import clone snap;
  let x = [| 0.4; 0.7 |] in
  let a = Dtm.predict dtm x and b = Dtm.predict clone x in
  Alcotest.(check (float 1e-9)) "same crash prediction" a.Dtm.crash_probability
    b.Dtm.crash_probability;
  Alcotest.(check (float 1e-9)) "same performance" a.Dtm.performances.(0)
    b.Dtm.performances.(0);
  (* Flat serialization roundtrip. *)
  let snap2 = Dtm.snapshot_of_floats (Dtm.snapshot_to_floats snap) in
  let clone2 = Dtm.create (T.Rng.create 8) ~in_dim:2 in
  Dtm.import clone2 snap2;
  Alcotest.(check (float 1e-9)) "flat roundtrip" a.Dtm.performances.(0)
    (Dtm.predict clone2 x).Dtm.performances.(0)

let test_dtm_import_rejects_mismatch () =
  let dtm, _ = trained_dtm () in
  let snap = Dtm.export dtm in
  let other = Dtm.create (T.Rng.create 9) ~in_dim:5 in
  Alcotest.(check bool) "wrong in_dim rejected" true
    (try
       Dtm.import other snap;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Multi-metric extension (§3.2)                                       *)
(* ------------------------------------------------------------------ *)

let multi_prediction ?(crash = 0.1) ?(unc = 0.2) perfs =
  { Dtm.crash_probability = crash;
    performances = perfs;
    normalized_performances = perfs;
    aleatoric_stds = Array.map (fun _ -> 1.) perfs;
    uncertainty = unc }

let bare_options = { Deeptune.default_options with exploration_weight = 0.; crash_penalty = 0. }

let test_multi_rank_weighted_average () =
  (* Weights 3:1, as [Deeptune.create] normalises them. *)
  let r perfs =
    Deeptune.rank bare_options ~weights:[| 0.75; 0.25 |] ~dissimilarity:0.
      (multi_prediction perfs)
  in
  Alcotest.(check (float 1e-9)) "weighted" ((0.75 *. 2.) +. (0.25 *. -1.)) (r [| 2.; -1. |]);
  Alcotest.(check bool) "dominant metric dominates" true (r [| 1.; 0. |] > r [| 0.; 1. |]);
  (* One metric at weight 1: the single-metric rank, bit for bit. *)
  let options = { Deeptune.default_options with exploration_weight = 0.7 } in
  let p = multi_prediction ~crash:0.3 ~unc:0.4 [| 0.1 |] in
  let bonus = Scoring.score ~alpha:options.alpha ~dissimilarity:0.6 ~uncertainty:0.4 () in
  Alcotest.(check (float 0.)) "k = 1 is the single-metric expression"
    (0.1 +. (0.7 *. bonus) -. (options.crash_penalty *. 0.3))
    (Deeptune.rank options ~weights:[| 1. |] ~dissimilarity:0.6 p)

let test_multi_rank_crash_penalty () =
  let r crash =
    Deeptune.rank { bare_options with crash_penalty = 2. } ~weights:[| 1. |] ~dissimilarity:0.
      (multi_prediction ~crash [| 1. |])
  in
  Alcotest.(check bool) "crashier ranks lower" true (r 0.9 < r 0.1)

let two_metrics = [| P.Metric.throughput; P.Metric.memory_mb |]

let test_multi_rank_validation () =
  let tiny = CS.Space.create [ CS.Param.int_param "x" ~lo:0 ~hi:10 ~default:5 ] in
  let rejects name spec weights =
    Alcotest.(check bool) name true
      (try
         ignore (Deeptune.create ~objectives:{ Deeptune.spec; weights } tiny);
         false
       with Invalid_argument _ -> true)
  in
  rejects "count mismatch rejected" two_metrics [| 1. |];
  rejects "zero weights rejected" two_metrics [| 0.; 0. |];
  rejects "negative sum rejected" two_metrics [| 1.; -2. |];
  rejects "one objective rejected" [| P.Metric.throughput |] [| 1. |];
  ignore (Deeptune.create ~objectives:{ Deeptune.spec = two_metrics; weights = [| 3.; 1. |] } tiny);
  Alcotest.(check bool) "rank rejects a weight/metric mismatch" true
    (try
       ignore (Deeptune.rank bare_options ~weights:[| 1. |] ~dissimilarity:0.
                 (multi_prediction [| 1.; 2. |]));
       false
     with Invalid_argument _ -> true)

let test_dtm_multi_learns_two_targets () =
  (* target 0 = 3*x0, target 1 = -2*x1; crash iff x2 > 0.8. *)
  let rng = T.Rng.create 5 in
  let ds = T.Dataset.create () in
  for _ = 1 to 300 do
    let x = Array.init 3 (fun _ -> T.Rng.float rng 1.0) in
    let crashed = x.(2) > 0.8 in
    T.Dataset.add_targets ds x ~targets:[| 3. *. x.(0); -2. *. x.(1) |] ~crashed
  done;
  let m = Dtm.create ~metrics:2 (T.Rng.create 6) ~in_dim:3 in
  ignore (Dtm.train m ~epochs:250 ds);
  let p = Dtm.predict m [| 0.9; 0.1; 0.2 |] in
  let q = Dtm.predict m [| 0.1; 0.9; 0.2 |] in
  Alcotest.(check bool) "metric 0 tracks x0" true
    (p.Dtm.performances.(0) > q.Dtm.performances.(0) +. 0.8);
  Alcotest.(check bool) "metric 1 tracks -x1" true
    (p.Dtm.performances.(1) > q.Dtm.performances.(1) +. 0.5);
  let crashy = Dtm.predict m [| 0.5; 0.5; 0.95 |] in
  let safe = Dtm.predict m [| 0.5; 0.5; 0.2 |] in
  Alcotest.(check bool)
    (Printf.sprintf "shared crash head separates (%.2f vs %.2f)" crashy.Dtm.crash_probability
       safe.Dtm.crash_probability)
    true
    (crashy.Dtm.crash_probability > safe.Dtm.crash_probability +. 0.08)

let test_dtm_multi_validation () =
  let rejects name f =
    Alcotest.(check bool) name true (try f (); false with Invalid_argument _ -> true)
  in
  rejects "metrics >= 1" (fun () -> ignore (Dtm.create ~metrics:0 (T.Rng.create 1) ~in_dim:2));
  let m = Dtm.create ~metrics:2 (T.Rng.create 1) ~in_dim:2 in
  rejects "bad feature dim" (fun () -> ignore (Dtm.predict m [| 1. |]));
  let ds = T.Dataset.create () in
  T.Dataset.add_targets ds [| 1.; 2. |] ~targets:[| 1.; 2. |] ~crashed:false;
  rejects "bad target count" (fun () ->
      T.Dataset.add_targets ds [| 1.; 2. |] ~targets:[| 1. |] ~crashed:false);
  let one = T.Dataset.create () in
  T.Dataset.add one [| 1.; 2. |] ~target:1. ~crashed:false;
  rejects "train rejects a dataset with fewer targets" (fun () -> ignore (Dtm.train m one));
  rejects "train rejects a dataset with more targets" (fun () ->
      ignore (Dtm.train (Dtm.create (T.Rng.create 2) ~in_dim:2) ds));
  ignore (Dtm.train m ds)

(* A k = 3 model's snapshot: the flat codec round-trips bitwise, a fresh
   k = 3 model predicts like the donor once imported, and imports across
   k fail the size check. *)
let test_dtm_multi_snapshot () =
  let rng = T.Rng.create 4 in
  let ds = T.Dataset.create () in
  for _ = 1 to 40 do
    let x = [| T.Rng.float rng 1.0; T.Rng.float rng 1.0 |] in
    T.Dataset.add_targets ds x ~targets:[| x.(0); -.x.(1); x.(0) *. x.(1) |]
      ~crashed:(T.Rng.bernoulli rng 0.2)
  done;
  let m = Dtm.create ~metrics:3 (T.Rng.create 5) ~in_dim:2 in
  ignore (Dtm.train m ~epochs:3 ds);
  let bits a = Array.map Int64.bits_of_float a in
  let flat = Dtm.snapshot_to_floats (Dtm.export m) in
  Alcotest.(check bool) "flat codec round-trips bitwise" true
    (bits flat = bits (Dtm.snapshot_to_floats (Dtm.snapshot_of_floats flat)));
  let clone = Dtm.create ~metrics:3 (T.Rng.create 6) ~in_dim:2 in
  Dtm.import clone (Dtm.snapshot_of_floats flat);
  let x = [| 0.3; 0.8 |] in
  let a = Dtm.predict m x and b = Dtm.predict clone x in
  Alcotest.(check bool) "imported model predicts bitwise" true
    (bits a.Dtm.performances = bits b.Dtm.performances
    && bits a.Dtm.aleatoric_stds = bits b.Dtm.aleatoric_stds
    && Int64.bits_of_float a.Dtm.crash_probability = Int64.bits_of_float b.Dtm.crash_probability);
  let rejects name f =
    Alcotest.(check bool) name true (try f (); false with Invalid_argument _ -> true)
  in
  rejects "k = 3 snapshot into a k = 1 model" (fun () ->
      Dtm.import (Dtm.create (T.Rng.create 7) ~in_dim:2) (Dtm.snapshot_of_floats flat));
  rejects "k = 1 snapshot into a k = 3 model" (fun () ->
      Dtm.import
        (Dtm.create ~metrics:3 (T.Rng.create 8) ~in_dim:2)
        (Dtm.export (Dtm.create (T.Rng.create 9) ~in_dim:2)))

(* Two conflicting objectives over one integer parameter, both maximized:
   f0 = x, f1 = -x.  The target's scalar is the weighted sum with the
   searcher's own weights, so the weighting decides where the search
   settles. *)
let test_multi_proposer_respects_weights () =
  let space = CS.Space.create [ CS.Param.int_param "x" ~lo:0 ~hi:100 ~default:50 ] in
  let spec =
    [| P.Metric.make ~name:"up" ~unit_name:"u" (); P.Metric.make ~name:"down" ~unit_name:"u" () |]
  in
  let run weight_up =
    let weights = [| weight_up; 1. -. weight_up |] in
    let scalarize = P.Scalarize.Weighted_sum weights in
    let target =
      P.Target.make ~name:"up-down" ~space
        ~metric:(P.Metric.make ~name:"score" ~unit_name:"score" ())
        ~objective_spec:spec
        (fun ~trial:_ config ->
          let x = match config.(0) with CS.Param.Vint v -> float_of_int v | _ -> 0. in
          let vec = [| x; -.x |] in
          { P.Target.value = Ok (P.Scalarize.apply scalarize ~spec vec);
            build_s = 1.;
            boot_s = 1.;
            run_s = 1.;
            objectives = vec })
    in
    let options = { Deeptune.default_options with warmup = 8 } in
    let dt = Deeptune.create ~options ~seed:7 ~objectives:{ Deeptune.spec; weights } space in
    let r =
      P.Driver.run ~seed:7 ~target ~algorithm:(Deeptune.algorithm dt)
        ~budget:(P.Driver.Iterations 60) ()
    in
    match r.P.Driver.best with
    | Some e -> (
      match e.P.History.config.(0) with CS.Param.Vint v -> v | _ -> Alcotest.fail "int expected")
    | None -> Alcotest.fail "no best"
  in
  let favour_up = run 0.95 and favour_down = run 0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "weights steer the optimum (%d vs %d)" favour_up favour_down)
    true
    (favour_up > favour_down + 20)

(* The transient rule at any k: a transient failure (a flaky build, a
   spurious run) says nothing about the configuration, so it adds no
   training row and only bumps [deeptune.transient_skipped]; a
   configuration-caused crash adds a crashed row (no incumbent).  A
   success trains on its score-space targets: the scalar score at k = 1,
   [Objective.scores] of its vector at k > 1, which the fitted target
   means in the model's snapshot show. *)
let observe_rule ?objectives () =
  let tiny = CS.Space.create [ CS.Param.int_param "x" ~lo:0 ~hi:10 ~default:5 ] in
  let dt = Deeptune.create ?objectives tiny in
  let algo = Deeptune.algorithm dt in
  let obs = Wayfinder_obs.Recorder.null () in
  let ctx =
    { P.Search_algorithm.space = tiny;
      metric = P.Metric.throughput;
      history = P.History.create P.Metric.throughput;
      rng = T.Rng.create 1;
      obs }
  in
  let k = match objectives with Some o -> Array.length o.Deeptune.spec | None -> 1 in
  let entry index ?value ?objectives failure =
    { P.History.index;
      config = [| CS.Param.Vint index |];
      value;
      failure;
      at_seconds = 0.;
      eval_seconds = 0.;
      built = true;
      decide_seconds = 0.;
      objectives }
  in
  let skipped () =
    Wayfinder_obs.Metrics.counter (Wayfinder_obs.Recorder.snapshot obs)
      "deeptune.transient_skipped"
  in
  let incumbents () = List.length (Deeptune.export dt).Deeptune.incumbents in
  algo.P.Search_algorithm.observe ctx (entry 0 (Some P.Failure.Spurious_failure));
  Alcotest.(check int) "transient adds no row" 0 (Deeptune.observations dt);
  Alcotest.(check (float 0.)) "transient counted" 1. (skipped ());
  algo.P.Search_algorithm.observe ctx (entry 1 (Some P.Failure.Runtime_crash));
  Alcotest.(check int) "crash adds a row" 1 (Deeptune.observations dt);
  Alcotest.(check int) "crash is no incumbent" 0 (incumbents ());
  Alcotest.(check (float 0.)) "crash not counted as transient" 1. (skipped ());
  algo.P.Search_algorithm.observe ctx
    (entry 2 ~value:5. ~objectives:(Array.make k 5.) None);
  Alcotest.(check int) "success adds a row" 2 (Deeptune.observations dt);
  Alcotest.(check int) "success is an incumbent" 1 (incumbents ());
  if k > 1 then begin
    algo.P.Search_algorithm.observe ctx (entry 3 ~value:5. None);
    Alcotest.(check int) "success without a vector adds no row" 2 (Deeptune.observations dt)
  end;
  (* Two more successes make four rows, so the model trains and fits its
     target statistics on the three successes. *)
  algo.P.Search_algorithm.observe ctx
    (entry 4 ~value:7. ~objectives:(Array.init k (fun m -> [| 7.; 3.; 1. |].(m))) None);
  algo.P.Search_algorithm.observe ctx
    (entry 5 ~value:9. ~objectives:(Array.init k (fun m -> [| 9.; 1.; 3. |].(m))) None);
  Alcotest.(check int) "four rows" 4 (Deeptune.observations dt);
  let flat = Dtm.snapshot_to_floats (Dtm.export (Deeptune.dtm dt)) in
  let t_means = Array.sub flat (Array.length flat - (2 * k)) k in
  let want = Array.sub [| 7.; -3.; -3. |] 0 k in
  Alcotest.(check (array (float 1e-12))) "targets in score space" want t_means;
  (* The belief: crash probability and uncertainty at any k, a predicted
     metric value only at k = 1. *)
  match algo.P.Search_algorithm.predict with
  | None -> Alcotest.fail "deeptune states no belief"
  | Some predict ->
    let b = predict ctx [| CS.Param.Vint 6 |] in
    Alcotest.(check bool) "belief has a crash probability" true
      (b.P.Search_algorithm.crash_probability <> None);
    Alcotest.(check bool) "belief has an uncertainty" true
      (b.P.Search_algorithm.predicted_uncertainty <> None);
    Alcotest.(check bool) "belief has a value only at k = 1" (k = 1)
      (b.P.Search_algorithm.predicted_value <> None)

let test_transient_rule_single () = observe_rule ()

let test_transient_rule_three () =
  observe_rule
    ~objectives:
      { Deeptune.spec =
          [| P.Metric.throughput;
             P.Metric.make ~maximize:false ~name:"operation latency" ~unit_name:"us/op" ();
             P.Metric.memory_mb |];
        weights = [| 1.; 1.; 1. |] }
    ()

(* ------------------------------------------------------------------ *)
(* DeepTune search on SimLinux                                         *)
(* ------------------------------------------------------------------ *)

let sim = S.Sim_linux.create ()
let space = S.Sim_linux.space sim

let dt_options = { Deeptune.default_options with favor = Some CS.Param.Runtime }

let run_search ?(iterations = 150) ~seed algorithm =
  let target = P.Targets.of_sim_linux sim ~app:S.App.Nginx in
  P.Driver.run ~seed ~target ~algorithm ~budget:(P.Driver.Iterations iterations) ()

let test_deeptune_beats_random () =
  (* Averaged over seeds, DeepTune's best must beat random search's
     (Figure 6's qualitative claim). *)
  let seeds = [ 1; 2; 3 ] in
  let avg_best algo_of =
    let total =
      List.fold_left
        (fun acc seed ->
          let r = run_search ~seed (algo_of seed) in
          acc +. Option.value ~default:0. (P.History.best_value r.P.Driver.history))
        0. seeds
    in
    total /. float_of_int (List.length seeds)
  in
  let random = avg_best (fun _ -> P.Random_search.create ~favor:CS.Param.Runtime ()) in
  let deeptune =
    avg_best (fun seed -> Deeptune.algorithm (Deeptune.create ~options:dt_options ~seed space))
  in
  Alcotest.(check bool)
    (Printf.sprintf "deeptune %.0f > random %.0f" deeptune random)
    true (deeptune > random)

let test_deeptune_crash_rate_declines () =
  (* §4.1: the crash rate decreases over time as the model learns (0.3 →
     ~0.1); random stays flat.  Average over seeds to damp run noise. *)
  let late_rate seed =
    let dt = Deeptune.create ~options:dt_options ~seed space in
    let r = run_search ~seed (Deeptune.algorithm dt) in
    P.History.windowed_crash_rate r.P.Driver.history ~window:50
  in
  let mean = (late_rate 1 +. late_rate 2 +. late_rate 3) /. 3. in
  Alcotest.(check bool) (Printf.sprintf "late crash rate %.2f < 0.15" mean) true (mean < 0.15)

let test_deeptune_observations_recorded () =
  let dt = Deeptune.create ~options:dt_options ~seed:5 space in
  let _ = run_search ~iterations:40 ~seed:5 (Deeptune.algorithm dt) in
  Alcotest.(check int) "one observation per iteration" 40 (Deeptune.observations dt)

let test_deeptune_parameter_impacts () =
  let dt = Deeptune.create ~options:dt_options ~seed:1 space in
  let _ = run_search ~iterations:150 ~seed:1 (Deeptune.algorithm dt) in
  let impacts = Deeptune.parameter_impacts dt in
  Alcotest.(check int) "one entry per parameter" (CS.Space.size space) (Array.length impacts);
  (* The documented positive parameters should rank above the median
     parameter in learned positive impact. *)
  let rank name =
    let rec find i =
      if i >= Array.length impacts then Array.length impacts
      else if fst impacts.(i) = name then i
      else find (i + 1)
    in
    find 0
  in
  let somaxconn_rank = rank "net.core.somaxconn" in
  Alcotest.(check bool)
    (Printf.sprintf "somaxconn ranked %d of %d" somaxconn_rank (Array.length impacts))
    true
    (somaxconn_rank < Array.length impacts / 2)

let test_deeptune_transfer_learning_reduces_crashes () =
  (* §4.2: a model pre-trained on one app keeps the crash rate below ~10 %
     from the start on another app. *)
  let donor = Deeptune.create ~options:dt_options ~seed:3 space in
  let _ =
    P.Driver.run ~seed:3
      ~target:(P.Targets.of_sim_linux sim ~app:S.App.Redis)
      ~algorithm:(Deeptune.algorithm donor) ~budget:(P.Driver.Iterations 250) ()
  in
  let snap = Deeptune.export donor in
  let tl = Deeptune.create_from ~options:dt_options ~seed:21 space snap in
  let r = run_search ~iterations:100 ~seed:21 (Deeptune.algorithm tl) in
  let rate = P.History.crash_rate r.P.Driver.history in
  Alcotest.(check bool) (Printf.sprintf "TL crash rate %.2f < 0.12" rate) true (rate < 0.12)

let test_deeptune_crash_gate_ablation () =
  (* Disabling the gate and the penalty must not make crash avoidance
     better (sanity of the ablation axis). *)
  let rate options seed =
    let dt = Deeptune.create ~options ~seed space in
    let r = run_search ~seed (Deeptune.algorithm dt) in
    P.History.crash_rate r.P.Driver.history
  in
  let mean f = (f 2 +. f 4 +. f 6) /. 3. in
  let with_gate = mean (rate dt_options) in
  let without_gate =
    mean (rate { dt_options with crash_gate = None; crash_penalty = 0. })
  in
  Alcotest.(check bool)
    (Printf.sprintf "gated %.2f <= ungated %.2f (+slack)" with_gate without_gate)
    true
    (with_gate <= without_gate +. 0.03)

(* ------------------------------------------------------------------ *)
(* Golden outputs                                                      *)
(* ------------------------------------------------------------------ *)

(* Both goldens were recorded before the DTM kernels indexed Mat storage
   directly. *)
let hex = CS.Param.float_field

(* Sim-linux nginx at n=40, seed 11, default options. *)
let golden_run workers =
  let target = P.Targets.of_sim_linux (S.Sim_linux.create ()) ~app:S.App.Nginx in
  let dt = Deeptune.create ~seed:11 target.P.Target.space in
  let r =
    P.Driver.run ~seed:11 ~workers ~target ~algorithm:(Deeptune.algorithm dt)
      ~budget:(P.Driver.Iterations 40) ()
  in
  (dt, r)

(* One line per entry: "w<workers> <config_key> <value as %h, or - on
   failure>", as in bayes_redis_seed11.txt. *)
let test_golden_trajectory () =
  let trajectory workers =
    let _, r = golden_run workers in
    Array.to_list
      (Array.map
         (fun e ->
           Printf.sprintf "w%d %s %s" workers
             (CS.Param.config_key e.P.History.config)
             (match e.P.History.value with Some v -> hex v | None -> "-"))
         (P.History.entries r.P.Driver.history))
  in
  Golden_file.check "deeptune_nginx_seed11.txt" (trajectory 1 @ trajectory 4)

(* Encodings of seeded random nginx configurations. *)
let fixture_rows rng encoding n =
  Array.init n (fun _ -> CS.Encoding.encode encoding (CS.Space.random space rng))

(* The DTM after three epochs on 100 rows, its predictions on a 37-row
   pool (every block tail of the products), and the parameter impacts of
   the n=40 run. *)
let test_golden_dtm () =
  let encoding = CS.Encoding.create space in
  let rng = T.Rng.create 11 in
  let ds = T.Dataset.create () in
  Array.iter
    (fun x ->
      let crashed = T.Rng.bernoulli rng 0.3 in
      T.Dataset.add ds x ~target:(T.Rng.normal rng ~mu:100. ~sigma:10. ()) ~crashed)
    (fixture_rows rng encoding 100);
  let dtm = Dtm.create (T.Rng.create 12) ~in_dim:(CS.Encoding.dim encoding) in
  let l = Dtm.train dtm ~epochs:3 ds in
  let losses =
    String.concat " " ("losses" :: List.map hex [ l.Dtm.cce; l.Dtm.reg; l.Dtm.chamfer ])
  in
  let snapshot =
    Array.to_list (Array.map (fun v -> "s " ^ hex v) (Dtm.snapshot_to_floats (Dtm.export dtm)))
  in
  let predictions =
    Array.to_list
      (Array.map
         (fun (p : Dtm.prediction) ->
           String.concat " "
             ("p"
             :: List.map hex
                  [ p.Dtm.crash_probability; p.Dtm.performances.(0);
                    p.Dtm.normalized_performances.(0); p.Dtm.aleatoric_stds.(0);
                    p.Dtm.uncertainty ]))
         (Dtm.predict_batch dtm (fixture_rows (T.Rng.create 13) encoding 37)))
  in
  let impacts =
    let dt, _ = golden_run 1 in
    Array.to_list
      (Array.map (fun (name, v) -> "i " ^ name ^ " " ^ hex v) (Deeptune.parameter_impacts dt))
  in
  Golden_file.check "dtm_nginx_seed11.txt" ((losses :: snapshot) @ predictions @ impacts)

let () =
  Alcotest.run "deeptune"
    [ ( "scoring",
        [ Alcotest.test_case "dissimilarity" `Quick test_scoring_dissimilarity;
          Alcotest.test_case "monotone in distance" `Quick test_scoring_monotone_in_distance;
          Alcotest.test_case "alpha balance" `Quick test_scoring_alpha_balance;
          QCheck_alcotest.to_alcotest prop_dissimilarity_batch_matches_oracle ] );
      ( "seen",
        [ Alcotest.test_case "last position tells configurations apart" `Quick
            test_seen_separates_last_position;
          QCheck_alcotest.to_alcotest prop_seen_matches_config_key ] );
      ( "dtm",
        [ Alcotest.test_case "create validates config (typed)" `Quick
            test_dtm_create_validates_config;
          Alcotest.test_case "predict_batch bitwise matches predict" `Quick
            test_dtm_predict_batch_matches_predict;
          Alcotest.test_case "untrained predicts" `Quick test_dtm_untrained_predicts;
          Alcotest.test_case "dimension check" `Quick test_dtm_dimension_check;
          Alcotest.test_case "learns crash boundary" `Quick test_dtm_learns_crash_boundary;
          Alcotest.test_case "learns performance" `Quick test_dtm_learns_performance;
          Alcotest.test_case "uncertainty off-distribution" `Quick
            test_dtm_uncertainty_higher_off_distribution;
          Alcotest.test_case "accuracy evaluation" `Quick test_dtm_accuracy_evaluation;
          Alcotest.test_case "losses decrease" `Quick test_dtm_losses_decrease;
          Alcotest.test_case "empty dataset noop" `Quick test_dtm_empty_dataset_noop;
          Alcotest.test_case "sensitivity finds signal" `Quick test_dtm_sensitivity_finds_signal;
          Alcotest.test_case "snapshot roundtrip" `Quick test_dtm_snapshot_roundtrip;
          Alcotest.test_case "import rejects mismatch" `Quick test_dtm_import_rejects_mismatch ] );
      ( "multi",
        [ Alcotest.test_case "rank weighted average" `Quick test_multi_rank_weighted_average;
          Alcotest.test_case "rank crash penalty" `Quick test_multi_rank_crash_penalty;
          Alcotest.test_case "rank validation" `Quick test_multi_rank_validation;
          Alcotest.test_case "dtm learns two targets" `Quick test_dtm_multi_learns_two_targets;
          Alcotest.test_case "dtm validation" `Quick test_dtm_multi_validation;
          Alcotest.test_case "dtm snapshot at k = 3" `Quick test_dtm_multi_snapshot;
          Alcotest.test_case "proposer respects weights" `Quick test_multi_proposer_respects_weights;
          Alcotest.test_case "transient rule at k = 1" `Quick test_transient_rule_single;
          Alcotest.test_case "transient rule at k = 3" `Quick test_transient_rule_three ] );
      ( "search",
        [ Alcotest.test_case "beats random" `Slow test_deeptune_beats_random;
          Alcotest.test_case "crash rate declines" `Slow test_deeptune_crash_rate_declines;
          Alcotest.test_case "observations recorded" `Quick test_deeptune_observations_recorded;
          Alcotest.test_case "parameter impacts" `Slow test_deeptune_parameter_impacts;
          Alcotest.test_case "transfer learning" `Slow test_deeptune_transfer_learning_reduces_crashes;
          Alcotest.test_case "crash gate ablation" `Slow test_deeptune_crash_gate_ablation ] );
      ( "golden",
        [ Alcotest.test_case "nginx trajectory" `Quick test_golden_trajectory;
          Alcotest.test_case "dtm fixture" `Quick test_golden_dtm ] ) ]
