module Metric = Wayfinder_platform.Metric
module Obs = Wayfinder_obs

let default_epsilon = 0.01

type report = {
  label : string;
  algo : string option;
  metric : Metric.t;
  stats : Running.stats;
      (** Iterations, best, virtual time, failure rates, distinct configs
          and stage keys, Pareto front size and hypervolume proxy. *)
  final_regret : float; (** Always 0 when any success exists; NaN otherwise. *)
  epsilon : float;
  samples_to_within : int option;
  virtual_seconds_to_within : float option;
  samples_to_best : int option;
  failure_counts : (string * int) list;
  marginals : (string * (string * int) list) array;  (** {!Series.marginals}. *)
  calibration : Calibration.t;
  objective_best : (Metric.t * (int * float) option) array;
      (** Per objective of a multi-objective run: best (iteration, raw
          value) under that objective's own metric; [[||]] for scalar
          runs. *)
}

let of_series ?(label = "run") ?algo ?(epsilon = default_epsilon) (s : Series.t) =
  let regret = Series.simple_regret s in
  let n = Array.length regret in
  { label;
    algo;
    metric = s.Series.metric;
    stats = Series.stats s;
    final_regret = (if n = 0 then nan else regret.(n - 1));
    epsilon;
    samples_to_within = Series.samples_to_within s ~epsilon;
    virtual_seconds_to_within = Series.virtual_seconds_to_within s ~epsilon;
    samples_to_best = Series.samples_to_best s;
    failure_counts = Series.failure_counts s;
    marginals = Series.marginals s;
    calibration = Calibration.of_series s;
    objective_best =
      Array.mapi (fun i m -> (m, Series.objective_best s i)) s.Series.objectives }

(* ------------------------------------------------------------------ *)
(* Text rendering                                                      *)
(* ------------------------------------------------------------------ *)

let pct v = Printf.sprintf "%.1f%%" (100. *. v)

let opt_f fmt = function Some v -> fmt v | None -> "-"
let opt_int = opt_f string_of_int

let to_text r =
  let st = r.stats in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "run: %s%s" r.label (match r.algo with Some a -> Printf.sprintf " (%s)" a | None -> "");
  line "metric: %s [%s, %s]" r.metric.Metric.metric_name r.metric.Metric.unit_name
    (if r.metric.Metric.maximize then "maximize" else "minimize");
  line "iterations: %d (virtual %s)" st.length (Obs.Summary.si st.virtual_seconds);
  (match st.best with
  | Some (i, v) -> line "best: %.3f %s at iteration %d" v r.metric.Metric.unit_name i
  | None -> line "best: - (no successful evaluation)");
  line "samples to within %.1f%% of best: %s (virtual %s)" (100. *. r.epsilon)
    (opt_int r.samples_to_within)
    (opt_f Obs.Summary.si r.virtual_seconds_to_within);
  line "samples to best: %s" (opt_int r.samples_to_best);
  if r.objective_best <> [||] then begin
    line "objectives:";
    Array.iter
      (fun ((m : Metric.t), best) ->
        match best with
        | Some (i, v) ->
          line "  %-12s best %.3f %s at iteration %d" m.Metric.metric_name v
            m.Metric.unit_name i
        | None -> line "  %-12s best - (no measurement)" m.Metric.metric_name)
      r.objective_best;
    (match (st.pareto_size, st.hypervolume_proxy) with
    | Some n, Some hv -> line "  pareto front: %d points, hypervolume proxy %.4f" n hv
    | _ -> ())
  end;
  line "crash rate: %s   transient rate: %s" (pct st.crash_rate) (pct st.transient_rate);
  if r.failure_counts <> [] then
    line "failures: %s"
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) r.failure_counts));
  line "coverage: %d evaluated, %d distinct configs, %d distinct images (stage keys)"
    st.length st.distinct_configs st.distinct_stage_keys;
  Array.iter
    (fun (name, counts) ->
      if counts <> [] then
        line "  %-24s %s" name
          (String.concat " "
             (List.map (fun (tok, n) -> Printf.sprintf "%s:%d" tok n) counts)))
    r.marginals;
  let cal = r.calibration in
  line "calibration:";
  line "  crash pairs: %d   Brier: %s" cal.Calibration.crash_pairs
    (opt_f (Printf.sprintf "%.4f") cal.Calibration.brier);
  if cal.Calibration.reliability <> [||] then begin
    line "  reliability (predicted -> observed):";
    Array.iter
      (fun (b : Calibration.reliability_bin) ->
        if b.Calibration.count > 0 then
          line "    [%.1f,%.1f) n=%-4d predicted %.3f observed %.3f" b.Calibration.lo
            b.Calibration.hi b.Calibration.count b.Calibration.mean_predicted
            b.Calibration.observed_rate)
      cal.Calibration.reliability
  end;
  line "  value pairs: %d   MAE: %s" cal.Calibration.value_pairs
    (opt_f (Printf.sprintf "%.4f") cal.Calibration.mae);
  line "  uncertainty pairs: %d   Spearman(sigma, |err|): %s"
    cal.Calibration.uncertainty_pairs
    (opt_f (Printf.sprintf "%.4f") cal.Calibration.uncertainty_spearman);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

let opt_num = function Some v -> Json.Num v | None -> Json.Null
let opt_num_i = function Some v -> Json.Num (float_of_int v) | None -> Json.Null

let to_json r =
  let st = r.stats in
  let cal = r.calibration in
  (* Objective members are appended, and only for multi-objective runs, so
     scalar reports serialize byte-identically to earlier versions. *)
  let objective_members =
    if r.objective_best = [||] then []
    else
      [ ( "objectives",
          Json.List
            (Array.to_list
               (Array.map
                  (fun ((m : Metric.t), best) ->
                    Json.Obj
                      [ ("name", Json.Str m.Metric.metric_name);
                        ("unit", Json.Str m.Metric.unit_name);
                        ("maximize", Json.Bool m.Metric.maximize);
                        ( "best",
                          match best with
                          | Some (i, v) ->
                            Json.Obj
                              [ ("iteration", Json.Num (float_of_int i));
                                ("value", Json.Num v) ]
                          | None -> Json.Null ) ])
                  r.objective_best)) );
        ("pareto_size", opt_num_i st.pareto_size);
        ("hypervolume_proxy", opt_num st.hypervolume_proxy) ]
  in
  Json.Obj
    ([ ("label", Json.Str r.label);
      ("algo", (match r.algo with Some a -> Json.Str a | None -> Json.Null));
      ( "metric",
        Json.Obj
          [ ("name", Json.Str r.metric.Metric.metric_name);
            ("unit", Json.Str r.metric.Metric.unit_name);
            ("maximize", Json.Bool r.metric.Metric.maximize) ] );
      ("iterations", Json.Num (float_of_int st.length));
      ( "best",
        match st.best with
        | Some (i, v) ->
          Json.Obj [ ("iteration", Json.Num (float_of_int i)); ("value", Json.Num v) ]
        | None -> Json.Null );
      ("final_regret", Json.Num r.final_regret);
      ("epsilon", Json.Num r.epsilon);
      ("samples_to_within", opt_num_i r.samples_to_within);
      ("virtual_seconds_to_within", opt_num r.virtual_seconds_to_within);
      ("samples_to_best", opt_num_i r.samples_to_best);
      ("total_virtual_seconds", Json.Num st.virtual_seconds);
      ("crash_rate", Json.Num st.crash_rate);
      ("transient_rate", Json.Num st.transient_rate);
      ( "failure_counts",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Num (float_of_int n))) r.failure_counts) );
      ( "coverage",
        Json.Obj
          [ ("evaluated", Json.Num (float_of_int st.length));
            ("distinct_configs", Json.Num (float_of_int st.distinct_configs));
            ("distinct_stage_keys", Json.Num (float_of_int st.distinct_stage_keys));
            ( "marginals",
              Json.Obj
                (Array.to_list
                   (Array.map
                      (fun (name, counts) ->
                        ( name,
                          Json.Obj
                            (List.map (fun (tok, n) -> (tok, Json.Num (float_of_int n))) counts)
                        ))
                      r.marginals)) ) ] );
      ( "calibration",
        Json.Obj
          [ ("crash_pairs", Json.Num (float_of_int cal.Calibration.crash_pairs));
            ("brier", opt_num cal.Calibration.brier);
            ( "reliability",
              Json.List
                (Array.to_list
                   (Array.map
                      (fun (b : Calibration.reliability_bin) ->
                        Json.Obj
                          [ ("lo", Json.Num b.Calibration.lo);
                            ("hi", Json.Num b.Calibration.hi);
                            ("count", Json.Num (float_of_int b.Calibration.count));
                            ("mean_predicted", Json.Num b.Calibration.mean_predicted);
                            ("observed_rate", Json.Num b.Calibration.observed_rate) ])
                      cal.Calibration.reliability)) );
            ("value_pairs", Json.Num (float_of_int cal.Calibration.value_pairs));
            ("mae", opt_num cal.Calibration.mae);
            ("uncertainty_pairs", Json.Num (float_of_int cal.Calibration.uncertainty_pairs));
            ("uncertainty_spearman", opt_num cal.Calibration.uncertainty_spearman) ] ) ]
     @ objective_members)

(* ------------------------------------------------------------------ *)
(* Per-iteration series CSV                                            *)
(* ------------------------------------------------------------------ *)

let series_csv (s : Series.t) =
  let bsf = Series.best_so_far s in
  let regret = Series.simple_regret s in
  let crash_w = Series.windowed_crash_rate s in
  let transient_w = Series.windowed_transient_rate s in
  (* Per-objective best-so-far columns are appended only for
     multi-objective runs, so scalar CSVs stay byte-identical. *)
  let n_obj = Series.objective_count s in
  let obj_bsf = Array.init n_obj (Series.objective_best_so_far s) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "iteration,value,best_so_far,simple_regret,crash_rate_w%d,transient_rate_w%d,at_s"
       Running.default_window Running.default_window);
  Array.iter
    (fun (m : Metric.t) ->
      Buffer.add_string buf (Printf.sprintf ",best_%s" m.Metric.metric_name))
    s.Series.objectives;
  Buffer.add_char buf '\n';
  let num v = Json.number_to_string v in
  Array.iteri
    (fun i (r : Series.row) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%s,%s,%s,%s,%s" r.Series.index
           (match r.Series.value with Some v -> num v | None -> "")
           (num bsf.(i)) (num regret.(i)) (num crash_w.(i)) (num transient_w.(i))
           (num r.Series.at_seconds));
      Array.iter (fun col -> Buffer.add_string buf ("," ^ num col.(i))) obj_bsf;
      Buffer.add_char buf '\n')
    s.Series.rows;
  Buffer.contents buf
