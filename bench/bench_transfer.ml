(* Transfer: registry round-trip and warm-start sample efficiency on the
   fig9 workload (Nginx on Unikraft).

   A cold DeepTune run trains a model; the model travels the full
   registry path (export → sealed entry → bytes on disk → parse →
   import), which must preserve every float bitwise, and a second search
   on a different seed warm-started from that entry must reach the cold
   run's best value in strictly fewer samples.  A corrupted copy of the
   entry must be caught by fsck — the registry's end-to-end integrity
   story in one experiment. *)

module S = Wayfinder_simos
module P = Wayfinder_platform
module D = Wayfinder_deeptune
module A = Wayfinder_analytics
module Space = Wayfinder_configspace.Space
module Encoding = Wayfinder_configspace.Encoding

let json_path = "bench_transfer.json"
let cold_iterations = 100
let warm_iterations = 40

(* fig9's options: a small space rewards a larger pool and more training
   per observation. *)
let options =
  { D.Deeptune.default_options with
    pool_size = 384;
    train_epochs = 8;
    exploration_weight = 1.5;
    dtm_config = { D.Dtm.default_config with weight_decay = 0.3 } }

let fresh_dir () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "wayfinder-bench-registry" in
  if Sys.file_exists dir then
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

let bits = Int64.bits_of_float

let same_prediction (a : D.Dtm.prediction) (b : D.Dtm.prediction) =
  let same_bits x y = Array.map bits x = Array.map bits y in
  bits a.D.Dtm.crash_probability = bits b.D.Dtm.crash_probability
  && same_bits a.D.Dtm.performances b.D.Dtm.performances
  && same_bits a.D.Dtm.normalized_performances b.D.Dtm.normalized_performances
  && same_bits a.D.Dtm.aleatoric_stds b.D.Dtm.aleatoric_stds
  && bits a.D.Dtm.uncertainty = bits b.D.Dtm.uncertainty

let samples_to goal best_so_far =
  let rec scan i =
    if i >= Array.length best_so_far then None
    else if (not (Float.is_nan best_so_far.(i))) && best_so_far.(i) >= goal then Some (i + 1)
    else scan (i + 1)
  in
  scan 0

let fmt_samples = function Some n -> string_of_int n | None -> "null"

let run () =
  Bench_common.section
    "Transfer: registry round-trip and warm-start sample efficiency (Unikraft/Nginx)";
  let uk = S.Sim_unikraft.create () in
  let space = S.Sim_unikraft.space uk in
  let target = P.Targets.of_sim_unikraft uk in
  (* --- the cold donor run ------------------------------------------ *)
  let cold_seed = 300 in
  let cold_dt = D.Deeptune.create ~options ~seed:cold_seed space in
  let cold =
    P.Driver.run ~seed:cold_seed ~target ~algorithm:(D.Deeptune.algorithm cold_dt)
      ~budget:(P.Driver.Iterations cold_iterations) ()
  in
  let cold_series = A.Series.of_history ~space cold.P.Driver.history in
  let cold_best =
    match A.Series.best cold_series with
    | Some (_, v) -> v
    | None -> failwith "cold run found no successful configuration"
  in
  let cold_bsf = A.Series.best_so_far cold_series in
  Printf.printf "cold run: %d samples, best %.0f req/s\n" cold_iterations cold_best;
  (* --- through the registry ---------------------------------------- *)
  let transfer = D.Deeptune.export cold_dt in
  let fp = P.Registry.fingerprint ~app:target.P.Target.target_name space in
  let entry =
    { P.Registry.fp;
      meta =
        { P.Registry.algo = "deeptune";
          seed = cold_seed;
          samples = D.Deeptune.observations cold_dt;
          metric_name = target.P.Target.metric.P.Metric.metric_name;
          unit_name = target.P.Target.metric.P.Metric.unit_name;
          maximize = target.P.Target.metric.P.Metric.maximize;
          objectives = [];
          best_value = Some cold_best;
          mean_value = cold_best;
          crash_rate = (A.Series.stats cold_series).A.Running.crash_rate;
          ledger = None };
      model_kind = "dtm";
      model = D.Dtm.snapshot_to_floats transfer.D.Deeptune.model;
      incumbents = transfer.D.Deeptune.incumbents;
      sealed = true }
  in
  let dir = fresh_dir () in
  let path =
    match P.Registry.save ~dir entry with
    | Ok p -> p
    | Error e -> failwith (P.Registry.error_to_string e)
  in
  let reloaded =
    match P.Registry.load path with
    | Ok e -> e
    | Error e -> failwith (P.Registry.error_to_string e)
  in
  let roundtrip_bitwise =
    Array.length reloaded.P.Registry.model = Array.length entry.P.Registry.model
    && Array.for_all2
         (fun a b -> bits a = bits b)
         reloaded.P.Registry.model entry.P.Registry.model
  in
  Bench_common.check roundtrip_bitwise
    "registry round-trip preserves every model float bitwise";
  (* --- the warm-started run ----------------------------------------- *)
  let warm_seed = 317 in
  let warm_dt =
    D.Deeptune.create_from ~options ~seed:warm_seed space
      { D.Deeptune.model = D.Dtm.snapshot_of_floats reloaded.P.Registry.model;
        incumbents = reloaded.P.Registry.incumbents }
  in
  (* The reloaded model must predict bit-for-bit like the donor it came
     from — the same guarantee checkpoints give search state. *)
  let enc = Encoding.create space in
  let probes = Array.of_list (Space.defaults space :: reloaded.P.Registry.incumbents) in
  let donor_dtm = D.Deeptune.dtm cold_dt in
  let warm_dtm = D.Deeptune.dtm warm_dt in
  let predict_bitwise =
    Array.for_all
      (fun c ->
        let x = Encoding.encode enc c in
        same_prediction (D.Dtm.predict donor_dtm x) (D.Dtm.predict warm_dtm x))
      probes
  in
  Bench_common.check predict_bitwise "reloaded model predicts bit-for-bit like the donor";
  let warm =
    P.Driver.run ~seed:warm_seed ~target ~algorithm:(D.Deeptune.algorithm warm_dt)
      ~budget:(P.Driver.Iterations warm_iterations) ()
  in
  let warm_bsf = A.Series.best_so_far (A.Series.of_history ~space warm.P.Driver.history) in
  (* Sample efficiency: first sample count at which each run's best
     reaches the cold run's (slightly relaxed) final best. *)
  let goal = 0.99 *. cold_best in
  let cold_samples = samples_to goal cold_bsf in
  let warm_samples = samples_to goal warm_bsf in
  Printf.printf "samples to reach 99%% of the cold best (%.0f req/s):\n" goal;
  Printf.printf "  cold: %s, warm-started: %s\n"
    (fmt_samples cold_samples) (fmt_samples warm_samples);
  (match (cold_samples, warm_samples) with
  | Some c, Some w ->
    Bench_common.check (w < c)
      "warm start reaches the cold-start best in strictly fewer samples"
  | Some _, None -> Bench_common.check false "warm start reaches the cold-start best at all"
  | None, _ -> Bench_common.check false "cold run reaches its own best (series sanity)");
  (* --- fsck catches a corrupted entry ------------------------------- *)
  let content = In_channel.with_open_bin path In_channel.input_all in
  let corrupted = Bytes.of_string content in
  let mid = Bytes.length corrupted / 2 in
  Bytes.set corrupted mid (Char.chr (Char.code (Bytes.get corrupted mid) lxor 0x01));
  let corrupt_path = Filename.concat dir "corrupted.model" in
  Out_channel.with_open_bin corrupt_path (fun oc ->
      Out_channel.output_bytes oc corrupted);
  let report = A.Fsck.scan [ corrupt_path ] in
  let fsck_detects = report.A.Fsck.corrupt = 1 in
  Bench_common.check fsck_detects "fsck flags the corrupted entry";
  P.Durable.atomic_write_exn ~path:json_path
    (Printf.sprintf
       "{\n\
       \  \"workload\": \"sim-unikraft/nginx\",\n\
       \  \"cold_iterations\": %d,\n\
       \  \"warm_iterations\": %d,\n\
       \  \"cold_best\": %.3f,\n\
       \  \"goal\": %.3f,\n\
       \  \"cold_samples_to_goal\": %s,\n\
       \  \"warm_samples_to_goal\": %s,\n\
       \  \"roundtrip_bitwise\": %b,\n\
       \  \"predict_bitwise\": %b,\n\
       \  \"fsck_detects_corruption\": %b\n\
        }\n"
       cold_iterations warm_iterations cold_best goal (fmt_samples cold_samples)
       (fmt_samples warm_samples) roundtrip_bitwise predict_bitwise fsck_detects);
  Printf.printf "dump written to %s\n" json_path
