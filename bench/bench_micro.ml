(* Domain scaling: wall-clock speedup of the hot kernels (320x320
   matmul, 512-candidate DTM pool scoring, one DTM training epoch) at 4
   domains, with a bitwise check that the pooled results equal the
   sequential ones.  Per-call kernel costs are perfbench's min-of-N
   kernel rows. *)

module T = Wayfinder_tensor
module CS = Wayfinder_configspace
module S = Wayfinder_simos
module D = Wayfinder_deeptune

let make_dataset ~rows ~dim seed =
  let rng = T.Rng.create seed in
  let ds = T.Dataset.create () in
  for _ = 1 to rows do
    let x = Array.init dim (fun _ -> T.Rng.float rng 1.0) in
    T.Dataset.add ds x ~target:(T.Rng.float rng 1.0) ~crashed:(T.Rng.bernoulli rng 0.3)
  done;
  ds

(* ------------------------------------------------------------------ *)
(* Domain scaling: wall-clock speedup of the hot kernels at 4 domains   *)
(* ------------------------------------------------------------------ *)

(* Best-of-N wall time: robust to scheduler noise without bootstrap
   machinery, which is all the ratchet needs. *)
let time_min ~runs f =
  let best = ref infinity in
  for _ = 1 to runs do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let json_path = "bench_micro.json"
let scaling_domains = 4

let domain_scaling () =
  Bench_common.section
    (Printf.sprintf "Domain scaling: sequential vs --domains %d (wall clock)" scaling_domains);
  let cores = Domain.recommended_domain_count () in
  if cores < scaling_domains then
    Printf.printf
      "note: only %d core(s) available — speedups below are not expected to reach %dx\n"
      cores scaling_domains;
  let rng = T.Rng.create 7 in
  (* Big enough to clear Mat.par_flop_threshold by orders of magnitude. *)
  let n = 320 in
  let a = T.Mat.init n n (fun _ _ -> T.Rng.float rng 1.0) in
  let b = T.Mat.init n n (fun _ _ -> T.Rng.float rng 1.0) in
  let sim = S.Sim_linux.create () in
  let space = S.Sim_linux.space sim in
  let encoding = CS.Encoding.create space in
  let dim = CS.Encoding.dim encoding in
  let dtm = D.Dtm.create (T.Rng.create 3) ~in_dim:dim in
  ignore (D.Dtm.train dtm ~epochs:2 (make_dataset ~rows:128 ~dim 2));
  (* One epoch on 128 rows from a fresh model: the trunk's forward and
     backward products go through the pool. *)
  let train_rows = make_dataset ~rows:128 ~dim 4 in
  let train_epoch () =
    let fresh = D.Dtm.create (T.Rng.create 6) ~in_dim:dim in
    ignore (D.Dtm.train fresh ~epochs:1 train_rows);
    fresh
  in
  let cfg_rng = T.Rng.create 5 in
  let candidates =
    Array.init 512 (fun _ ->
        CS.Encoding.encode encoding (CS.Space.random space cfg_rng))
  in
  let ops =
    [ ( "matmul-320x320",
        (fun () -> ignore (T.Mat.matmul a b)),
        fun () -> T.Mat.to_array (T.Mat.matmul a b) );
      ( "dtm-pool-score-512",
        (fun () -> ignore (D.Dtm.predict_batch dtm candidates)),
        fun () ->
          Array.concat
            (Array.to_list
               (Array.map
                  (fun (p : D.Dtm.prediction) ->
                    [| p.D.Dtm.crash_probability; p.D.Dtm.performances.(0); p.D.Dtm.uncertainty |])
                  (D.Dtm.predict_batch dtm candidates))) );
      ( "dtm-train-epoch",
        (fun () -> ignore (train_epoch ())),
        fun () -> D.Dtm.snapshot_to_floats (D.Dtm.export (train_epoch ())) ) ]
  in
  let pool = T.Domain_pool.create scaling_domains in
  let rows =
    Fun.protect
      ~finally:(fun () -> T.Domain_pool.shutdown pool)
      (fun () ->
        List.map
          (fun (name, op, fingerprint) ->
            let seq_s = time_min ~runs:5 op in
            let seq_fp = fingerprint () in
            let par_s, par_fp =
              T.Domain_pool.with_default (Some pool) (fun () ->
                  (time_min ~runs:5 op, fingerprint ()))
            in
            if seq_fp <> par_fp then
              failwith (name ^ ": pooled result differs from sequential");
            (name, seq_s, par_s, seq_s /. par_s))
          ops)
  in
  Printf.printf "%-24s %14s %14s %10s  %s\n" "operation" "sequential" "domains=4" "speedup"
    "bitwise";
  List.iter
    (fun (name, seq_s, par_s, speedup) ->
      Printf.printf "%-24s %12.2f ms %12.2f ms %9.2fx  equal\n" name (seq_s *. 1e3)
        (par_s *. 1e3) speedup)
    rows;
  let max_speedup = List.fold_left (fun m (_, _, _, s) -> Float.max m s) 0. rows in
  (* Machine-readable artifact for the CI ratchet
     (.github/micro-speedup-floor). *)
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n  \"domains\": %d,\n  \"cores\": %d,\n  \"ops\": [\n" scaling_domains
    cores;
  List.iteri
    (fun i (name, seq_s, par_s, speedup) ->
      Printf.bprintf buf
        "    { \"name\": %S, \"sequential_s\": %.6f, \"domains%d_s\": %.6f, \"speedup\": %.3f \
         }%s\n"
        name seq_s scaling_domains par_s speedup
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.bprintf buf "  ],\n  \"max_speedup\": %.3f\n}\n" max_speedup;
  Wayfinder_platform.Durable.atomic_write_exn ~path:json_path (Buffer.contents buf);
  Printf.printf "max speedup %.2fx (%d domains, %d cores) -> %s\n" max_speedup scaling_domains
    cores json_path

let run = domain_scaling
