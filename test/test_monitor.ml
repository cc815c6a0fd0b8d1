(* The streaming-observability conformance suite.

   The central property: the statistics fold ([Analytics.Running]),
   fed one row at a time through a Live_series, is bitwise-identical
   ([Int64.bits_of_float] on every float) at EVERY prefix to an
   independent oracle — the batch loops Series ran before the fold,
   copied here — across algorithms, engines and the multi-objective
   scenario harness.  Around it: golden CLI outputs over committed
   ledgers, the tail reader's torn-write/truncation/seal semantics, the
   alert rules' grammar and edge-triggering, the span profiler's
   reconciliation against the driver's own metrics registry, and the
   Prometheus exposition. *)

module C = Conformance
module M = Wayfinder_monitor
module A = Wayfinder_analytics
module P = Wayfinder_platform
module Obs = Wayfinder_obs
module CS = Wayfinder_configspace
module Ls = M.Live_series
module R = A.Running
module Old_series = Oracle.Live_series_all

(* ------------------------------------------------------------------ *)
(* Oracle: the batch formulas, one whole-array loop per statistic      *)
(* ------------------------------------------------------------------ *)

module Oracle = struct
  let best metric (rows : A.Series.row array) =
    let best = ref None in
    Array.iter
      (fun (r : A.Series.row) ->
        match r.value with
        | None -> ()
        | Some v -> (
          match !best with
          | None -> best := Some (r.index, v)
          | Some (_, bv) -> if P.Metric.better metric v bv then best := Some (r.index, v)))
      rows;
    !best

  let best_so_far metric (rows : A.Series.row array) =
    let n = Array.length rows in
    let out = Array.make n nan in
    let best = ref None in
    for i = 0 to n - 1 do
      (match rows.(i).value with
      | Some v -> (
        match !best with
        | None -> best := Some v
        | Some b -> if P.Metric.better metric v b then best := Some v)
      | None -> ());
      out.(i) <- (match !best with Some b -> b | None -> nan)
    done;
    out

  let is_crash (r : A.Series.row) =
    match r.failure with Some f -> P.Failure.counts_as_crash f | None -> false

  let is_transient (r : A.Series.row) =
    match r.failure with
    | Some f -> (
      match P.Failure.klass f with
      | P.Failure.Transient | P.Failure.Timeout -> true
      | P.Failure.Deterministic -> false)
    | None -> false

  let rate pred rows =
    let n = Array.length rows in
    if n = 0 then 0.
    else
      float_of_int (Array.fold_left (fun acc r -> if pred r then acc + 1 else acc) 0 rows)
      /. float_of_int n

  let windowed_rate pred (rows : A.Series.row array) ~window =
    let n = Array.length rows in
    let out = Array.make n 0. in
    let in_window = ref 0 in
    for i = 0 to n - 1 do
      if pred rows.(i) then incr in_window;
      if i >= window && pred rows.(i - window) then decr in_window;
      out.(i) <- float_of_int !in_window /. float_of_int (min (i + 1) window)
    done;
    out

  let stage_key stages (r : A.Series.row) =
    let buf = Buffer.create 32 in
    Array.iteri
      (fun i tok ->
        if i < Array.length stages && stages.(i) <> CS.Param.Runtime then begin
          Buffer.add_string buf tok;
          Buffer.add_char buf ';'
        end)
      r.tokens;
    Buffer.contents buf

  let distinct key rows =
    let tbl = Hashtbl.create 64 in
    Array.iter (fun r -> Hashtbl.replace tbl (key r) ()) rows;
    if Array.length rows = 0 then 0 else Hashtbl.length tbl

  let regret_slope metric rows ~window =
    let bsf = best_so_far metric rows in
    let n = Array.length bsf in
    let xs = ref [] and ys = ref [] in
    for i = max 0 (n - window) to n - 1 do
      if not (Float.is_nan bsf.(i)) then begin
        xs := float_of_int i :: !xs;
        ys := P.Metric.score metric bsf.(i) :: !ys
      end
    done;
    let xs = Array.of_list (List.rev !xs) and ys = Array.of_list (List.rev !ys) in
    let k = Array.length xs in
    if k < 2 then 0.
    else begin
      let mx = Wayfinder_tensor.Stat.mean xs and my = Wayfinder_tensor.Stat.mean ys in
      let num = ref 0. and den = ref 0. in
      for i = 0 to k - 1 do
        num := !num +. ((xs.(i) -. mx) *. (ys.(i) -. my));
        den := !den +. ((xs.(i) -. mx) *. (xs.(i) -. mx))
      done;
      if !den = 0. then 0. else !num /. !den
    end

  let pareto (objectives : P.Metric.t array) (rows : A.Series.row array) =
    if Array.length objectives = 0 then None
    else
      Some
        (Array.fold_left
           (fun front (r : A.Series.row) ->
             match r.objectives with
             | Some v when r.failure = None && Array.length v = Array.length objectives ->
               P.Pareto.insert front ~index:r.index ~objectives:v
             | Some _ | None -> front)
           (P.Pareto.create ~spec:objectives) rows)

  let last arr = if Array.length arr = 0 then 0. else arr.(Array.length arr - 1)

  let stats (s : A.Series.t) : R.stats =
    let rows = s.A.Series.rows and metric = s.A.Series.metric and window = R.default_window in
    let n = Array.length rows in
    let bsf = best_so_far metric rows in
    let front = pareto s.A.Series.objectives rows in
    { length = n;
      best = best metric rows;
      best_so_far = (if n = 0 then nan else bsf.(n - 1));
      regret_slope = regret_slope metric rows ~window;
      crash_rate = rate is_crash rows;
      transient_rate = rate is_transient rows;
      windowed_crash_rate = last (windowed_rate is_crash rows ~window);
      windowed_transient_rate = last (windowed_rate is_transient rows ~window);
      distinct_configs =
        distinct (fun (r : A.Series.row) -> String.concat ";" (Array.to_list r.tokens)) rows;
      distinct_stage_keys = distinct (stage_key s.A.Series.stages) rows;
      pareto_size = Option.map P.Pareto.size front;
      hypervolume_proxy = Option.map P.Pareto.hypervolume_proxy front;
      virtual_seconds = (if n = 0 then 0. else rows.(n - 1).at_seconds);
      total_eval_seconds =
        Array.fold_left (fun acc (r : A.Series.row) -> acc +. r.eval_seconds) 0. rows }
end

(* ------------------------------------------------------------------ *)
(* Bitwise stats comparison                                            *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float
let fl_eq a b = bits a = bits b
let arr_eq a b = Array.length a = Array.length b && Array.for_all2 fl_eq a b

let opt_eq eq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> eq a b
  | _ -> false

let stats_eq (a : R.stats) (b : R.stats) =
  a.length = b.length
  && opt_eq (fun (i, v) (j, w) -> i = j && fl_eq v w) a.best b.best
  && fl_eq a.best_so_far b.best_so_far
  && fl_eq a.regret_slope b.regret_slope
  && fl_eq a.crash_rate b.crash_rate
  && fl_eq a.transient_rate b.transient_rate
  && fl_eq a.windowed_crash_rate b.windowed_crash_rate
  && fl_eq a.windowed_transient_rate b.windowed_transient_rate
  && a.distinct_configs = b.distinct_configs
  && a.distinct_stage_keys = b.distinct_stage_keys
  && a.pareto_size = b.pareto_size
  && opt_eq fl_eq a.hypervolume_proxy b.hypervolume_proxy
  && fl_eq a.virtual_seconds b.virtual_seconds
  && fl_eq a.total_eval_seconds b.total_eval_seconds

let stats_pp (s : R.stats) =
  Printf.sprintf
    "{n=%d bsf=%h slope=%h crash=%h/%h trans=%h/%h cfg=%d stage=%d vt=%h evs=%h}"
    s.length s.best_so_far s.regret_slope s.crash_rate s.windowed_crash_rate
    s.transient_rate s.windowed_transient_rate s.distinct_configs s.distinct_stage_keys
    s.virtual_seconds s.total_eval_seconds

(* The per-row series Series derives from the fold, against the oracle's
   whole-array loops. *)
let check_series_arrays (s : A.Series.t) =
  let rows = s.A.Series.rows and window = R.default_window in
  let check name got want =
    if not (arr_eq got want) then Alcotest.failf "Series.%s diverged from the oracle" name
  in
  check "best_so_far" (A.Series.best_so_far s) (Oracle.best_so_far s.A.Series.metric rows);
  check "windowed_crash_rate" (A.Series.windowed_crash_rate s)
    (Oracle.windowed_rate Oracle.is_crash rows ~window);
  check "windowed_transient_rate"
    (A.Series.windowed_transient_rate s)
    (Oracle.windowed_rate Oracle.is_transient rows ~window);
  if not (stats_eq (A.Series.stats s) (Oracle.stats s)) then
    Alcotest.fail "Series.stats diverged from the oracle"

(* Space geometry of the conformance target, shared by every prefix
   check. *)
let conf_names, conf_stages =
  let params = CS.Space.params (C.space ()) in
  ( Array.map (fun (p : CS.Param.t) -> p.CS.Param.name) params,
    Array.map (fun (p : CS.Param.t) -> p.CS.Param.stage) params )

(* The progress line projects the fold's accessors, not its stats. *)
let progress_eq (p : A.Progress.snapshot) (s : R.stats) =
  p.iteration = s.length
  && opt_eq fl_eq p.best (Option.map snd s.best)
  && fl_eq p.regret_slope s.regret_slope
  && fl_eq p.crash_rate s.crash_rate
  && fl_eq p.virtual_seconds s.virtual_seconds

(* Check live == oracle at every prefix of [rows], and the batch series
   of all of them. *)
let check_prefix_parity ~metric ~objectives rows =
  let live = Ls.create ~metric ~names:conf_names ~stages:conf_stages ~objectives () in
  let batch k =
    { A.Series.metric;
      names = conf_names;
      stages = conf_stages;
      rows = Array.of_list (List.filteri (fun j _ -> j < k) rows);
      objectives }
  in
  List.iteri
    (fun i row ->
      Ls.observe live row;
      let k = i + 1 in
      let want = Oracle.stats (batch k) in
      if not (progress_eq (Ls.progress live) want) then
        Alcotest.failf "prefix %d: progress diverged from the oracle" k;
      let got = Ls.stats live in
      if not (stats_eq got want) then
        Alcotest.failf "prefix %d diverged:\n  live   %s\n  oracle %s" k (stats_pp got)
          (stats_pp want))
    rows;
  check_series_arrays (batch (List.length rows))

(* Runs outlast the fold's window, so the rings retire slots and the
   slope drops its oldest points. *)
let parity_budget = P.Driver.Iterations (R.default_window + 15)

let collect_rows () =
  let rows = ref [] in
  let on_record entry belief = rows := A.Ledger.row_of_entry entry belief :: !rows in
  (rows, on_record)

(* The central property: random seeds and fault rates, every algorithm,
   both engine widths. *)
let prefix_parity_prop =
  QCheck2.Test.make ~count:15 ~name:"live series == batch series at every prefix"
    QCheck2.Gen.(
      tup4 (oneofl [ "random"; "grid"; "deeptune" ]) (oneofl [ 1; 4 ])
        (int_range 1 1000) (oneofl [ 0.; 0.3 ]))
    (fun (name, workers, seed, fault_rate) ->
      let rows, on_record = collect_rows () in
      let (_ : C.outcome) =
        C.run ~workers ~seed ~budget:parity_budget ~fault_rate ~on_record
          name
      in
      check_prefix_parity ~metric:P.Metric.throughput ~objectives:[||]
        (List.rev !rows);
      true)

(* Multi-objective scenario runs carry objective vectors; the live
   Pareto front and hypervolume must track the oracle's. *)
let test_prefix_parity_scenario () =
  List.iter
    (fun workers ->
      let rows, on_record = collect_rows () in
      let (_ : C.outcome * int) =
        C.run_scenario ~workers ~seed:13 ~budget:parity_budget
          ~fault_rate:0.25 ~on_record "deeptune-multi"
      in
      check_prefix_parity
        ~metric:(P.Metric.make ~name:"score" ~unit_name:"score" ())
        ~objectives:C.scenario_spec (List.rev !rows))
    [ 1; 4 ]

(* The slice helpers the alert rules, the drift probe and --save-model
   read: bitwise the oracle's windowed crash rate over the slice and the
   drift probe's original in-order mean. *)
let slice_helpers_prop =
  QCheck2.Test.make ~count:300 ~name:"crash share and mean success == batch formulas"
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (pair
           (opt (map (fun (m, e) -> ldexp m e) (pair (float_range (-1.) 1.) (int_range (-20) 40))))
           (oneofl
              [ None; Some P.Failure.Runtime_crash; Some P.Failure.Spurious_failure;
                Some P.Failure.Build_failure; Some P.Failure.Quarantined ])))
    (fun cells ->
      let rows =
        Array.of_list
          (List.mapi
             (fun index (value, failure) ->
               { A.Series.index; tokens = [||]; value; failure; at_seconds = 0.;
                 eval_seconds = 0.; built = false; decide_seconds = 0.; belief = None;
                 objectives = None })
             cells)
      in
      let n = Array.length rows in
      let share =
        if n = 0 then 0. else Oracle.last (Oracle.windowed_rate Oracle.is_crash rows ~window:n)
      in
      let successes =
        Array.of_list
          (List.filter_map
             (fun (r : A.Series.row) ->
               match (r.value, r.failure) with Some v, None -> Some v | _ -> None)
             (Array.to_list rows))
      in
      let mean =
        if Array.length successes = 0 then Float.nan
        else Array.fold_left ( +. ) 0. successes /. float_of_int (Array.length successes)
      in
      fl_eq (R.crash_share rows) share && fl_eq (R.mean_success rows) mean)

(* of_meta wiring: folding a loaded ledger's rows through a meta-shaped
   live series matches the oracle over the same ledger. *)
let test_of_meta_matches_of_ledger path =
  match A.Ledger.load path with
  | Error e -> Alcotest.failf "load: %s" (A.Ledger.error_to_string e)
  | Ok ledger ->
    let series = A.Series.of_ledger ledger in
    let live = Ls.of_meta ledger.A.Ledger.meta in
    Array.iter (Ls.observe live) series.A.Series.rows;
    Alcotest.(check bool) "of_meta stats match" true
      (stats_eq (Ls.stats live) (Oracle.stats series))

(* ------------------------------------------------------------------ *)
(* Ledger fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let temp_path suffix =
  let path = Filename.temp_file "wayfinder_monitor" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* A real driver run recorded to a sealed ledger on disk. *)
let write_ledger ?(n = 14) ?(fault_rate = 0.3) ?(seed = 21) path =
  let writer =
    A.Ledger.create_writer ~seed ~algo:"random" ~space:(C.space ())
      ~metric:P.Metric.throughput path
  in
  let (_ : C.outcome) =
    C.run ~seed ~fault_rate ~budget:(P.Driver.Iterations n)
      ~on_record:(fun e b -> A.Ledger.record writer e b)
      "random"
  in
  A.Ledger.close_writer writer

let read_file path = In_channel.with_open_text path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* A live ledger grows by appends; rewriting the file instead would make
   every step pay for freeing the old file's blocks. *)
let append_file path s =
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path
    (fun oc -> Out_channel.output_string oc s)

(* ------------------------------------------------------------------ *)
(* Tail                                                                *)
(* ------------------------------------------------------------------ *)

let test_tail_whole_file () =
  let path = temp_path ".jsonl" in
  write_ledger path;
  let tail = M.Tail.create path in
  match (M.Tail.step tail, A.Ledger.load path) with
  | Error e, _ | _, Error e -> Alcotest.failf "tail: %s" (A.Ledger.error_to_string e)
  | Ok step, Ok ledger ->
    Alcotest.(check int) "all rows in one step" (List.length ledger.A.Ledger.rows)
      (List.length step.M.Tail.rows);
    Alcotest.(check bool) "rows identical" true (step.M.Tail.rows = ledger.A.Ledger.rows);
    Alcotest.(check bool) "seal verified" true (M.Tail.seal tail = M.Tail.Sealed);
    Alcotest.(check int) "no drops" 0 (M.Tail.dropped tail);
    (* A second step on the unchanged file delivers nothing. *)
    (match M.Tail.step tail with
    | Ok s2 ->
      Alcotest.(check int) "quiescent" 0 (List.length s2.M.Tail.rows)
    | Error e -> Alcotest.failf "re-step: %s" (A.Ledger.error_to_string e));
    test_of_meta_matches_of_ledger path

(* Feed the file in two chunks cut at an arbitrary byte: the torn
   fragment must stay pending (never a half-parsed row) and the
   accumulated result must equal the batch read.  Cuts sweep the file so
   mid-header, mid-meta, mid-row and mid-seal tears are all hit. *)
let test_tail_torn_writes () =
  let whole = temp_path ".jsonl" in
  write_ledger whole;
  let bytes = read_file whole in
  let batch =
    match A.Ledger.load whole with
    | Ok l -> l
    | Error e -> Alcotest.failf "batch: %s" (A.Ledger.error_to_string e)
  in
  let n = String.length bytes in
  let cut = ref 1 in
  while !cut < n do
    let part = temp_path ".jsonl" in
    write_file part (String.sub bytes 0 !cut);
    let tail = M.Tail.create part in
    let rows = ref [] in
    (match M.Tail.step tail with
    | Ok step ->
      rows := step.M.Tail.rows;
      Alcotest.(check bool)
        (Printf.sprintf "cut %d: torn file never sealed" !cut)
        true
        (M.Tail.seal tail <> M.Tail.Sealed || !cut = n)
    | Error e ->
      (* Only header/meta damage may be fatal — and a clean partial
         prefix of a valid file is never damaged, merely incomplete. *)
      Alcotest.failf "cut %d: unexpected fatal %s" !cut (A.Ledger.error_to_string e));
    append_file part (String.sub bytes !cut (n - !cut));
    (match M.Tail.step tail with
    | Ok step -> rows := !rows @ step.M.Tail.rows
    | Error e -> Alcotest.failf "cut %d: resume %s" !cut (A.Ledger.error_to_string e));
    Alcotest.(check bool)
      (Printf.sprintf "cut %d: accumulated rows = batch" !cut)
      true
      (!rows = batch.A.Ledger.rows);
    Alcotest.(check bool)
      (Printf.sprintf "cut %d: sealed at the end" !cut)
      true
      (M.Tail.seal tail = M.Tail.Sealed);
    cut := !cut + 37
  done

let test_tail_truncation_resets () =
  let path = temp_path ".jsonl" in
  write_ledger ~n:14 path;
  let long = read_file path in
  let tail = M.Tail.create path in
  (match M.Tail.step tail with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first read: %s" (A.Ledger.error_to_string e));
  (* The file is replaced by a shorter, different run. *)
  write_ledger ~n:6 ~seed:99 path;
  Alcotest.(check bool) "fixture really shrank" true
    (String.length (read_file path) < String.length long);
  (match M.Tail.step tail with
  | Error e -> Alcotest.failf "after truncation: %s" (A.Ledger.error_to_string e)
  | Ok step ->
    Alcotest.(check bool) "truncation flagged" true step.M.Tail.truncated;
    let batch =
      match A.Ledger.load path with
      | Ok l -> l
      | Error e -> Alcotest.failf "reload: %s" (A.Ledger.error_to_string e)
    in
    Alcotest.(check bool) "re-delivers the new file from byte 0" true
      (step.M.Tail.rows = batch.A.Ledger.rows);
    Alcotest.(check bool) "new seal verified" true (M.Tail.seal tail = M.Tail.Sealed))

let reason_mentions needle (drops : A.Ledger.drop list) =
  List.exists
    (fun (d : A.Ledger.drop) ->
      let r = d.A.Ledger.reason in
      let nl = String.length needle in
      let rec scan i =
        i + nl <= String.length r && (String.sub r i nl = needle || scan (i + 1))
      in
      scan 0)
    drops

(* Corrupt one body line into garbage: the tail's drops must mirror the
   batch salvage reader's (same line, offset and reason), and the fin
   seal — whose row count no longer matches — must become a drop, not a
   crash. *)
let test_tail_drop_parity_with_salvage () =
  let path = temp_path ".jsonl" in
  write_ledger path;
  let lines = String.split_on_char '\n' (read_file path) in
  let corrupt =
    List.mapi (fun i l -> if i = 4 then "{\"type\":\"iter\",garbage" else l) lines
  in
  write_file path (String.concat "\n" corrupt);
  let tail = M.Tail.create path in
  match (M.Tail.step tail, A.Ledger.salvage path) with
  | Error e, _ | _, Error e -> Alcotest.failf "read: %s" (A.Ledger.error_to_string e)
  | Ok step, Ok salvaged ->
    Alcotest.(check bool) "rows match salvage" true
      (step.M.Tail.rows = salvaged.A.Ledger.ledger.A.Ledger.rows);
    Alcotest.(check bool) "drops match salvage" true
      (step.M.Tail.drops = salvaged.A.Ledger.dropped);
    Alcotest.(check bool) "damaged body never seals" true
      (M.Tail.seal tail <> M.Tail.Sealed);
    Alcotest.(check bool) "row-count mismatch reported" true
      (reason_mentions "fin seal claims" step.M.Tail.drops)

(* Flip one digit inside a body line so the row still parses but the
   bytes differ: every row survives, yet the fin seal's CRC cannot
   verify and is reported as a positioned drop. *)
let test_tail_crc_mismatch_is_a_drop () =
  let path = temp_path ".jsonl" in
  write_ledger path;
  let lines = String.split_on_char '\n' (read_file path) in
  let flip_digit l =
    let b = Bytes.of_string l in
    let rec go i =
      if i < 0 then Alcotest.fail "no digit to flip in the fixture row"
      else
        match Bytes.get b i with
        | '0' .. '8' as c ->
          Bytes.set b i (Char.chr (Char.code c + 1));
          Bytes.to_string b
        | _ -> go (i - 1)
    in
    go (Bytes.length b - 1)
  in
  let corrupt = List.mapi (fun i l -> if i = 4 then flip_digit l else l) lines in
  write_file path (String.concat "\n" corrupt);
  let tail = M.Tail.create path in
  match (M.Tail.step tail, A.Ledger.salvage path) with
  | Error e, _ | _, Error e -> Alcotest.failf "read: %s" (A.Ledger.error_to_string e)
  | Ok step, Ok salvaged ->
    Alcotest.(check int) "every row still parses"
      (List.length salvaged.A.Ledger.ledger.A.Ledger.rows)
      (List.length step.M.Tail.rows);
    Alcotest.(check bool) "salvage agrees the seal is broken" false
      salvaged.A.Ledger.ledger.A.Ledger.sealed;
    Alcotest.(check bool) "flipped byte never seals" true
      (M.Tail.seal tail <> M.Tail.Sealed);
    Alcotest.(check bool) "crc mismatch reported" true
      (reason_mentions "crc mismatch" step.M.Tail.drops)

let test_tail_resume_is_sealed_unverified () =
  let path = temp_path ".jsonl" in
  write_ledger path;
  let bytes = read_file path in
  (* First reader consumes a prefix... *)
  let half = temp_path ".jsonl" in
  let cut = String.length bytes / 2 in
  write_file half (String.sub bytes 0 cut);
  let first = M.Tail.create half in
  (match M.Tail.step first with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "prefix read: %s" (A.Ledger.error_to_string e));
  let offset = M.Tail.offset first in
  let rows_read = M.Tail.rows_read first in
  let meta = Option.get (M.Tail.meta first) in
  append_file half (String.sub bytes cut (String.length bytes - cut));
  (* ...and a resumed tail picks up at its offset: the row count checks
     out but the CRC of the skipped prefix is unknowable. *)
  let resumed = M.Tail.resume ~rows_read ~path:half ~offset ~meta () in
  (match M.Tail.step resumed with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "resumed read: %s" (A.Ledger.error_to_string e));
  Alcotest.(check bool) "resumed seal is row-checked only" true
    (M.Tail.seal resumed = M.Tail.Sealed_unverified)

(* ------------------------------------------------------------------ *)
(* Dashboard                                                           *)
(* ------------------------------------------------------------------ *)

(* The frame is a function of the ledger's semantic content: chunked
   (follow-style) and one-shot reads render identical frames, and two
   identical-seed runs render identical frames from different files. *)
let test_dashboard_deterministic () =
  let p1 = temp_path ".jsonl" and p2 = temp_path ".jsonl" in
  write_ledger p1;
  write_ledger p2;
  let frame path chunked =
    let tail = M.Tail.create path in
    let live = ref None in
    let feed () =
      match M.Tail.step tail with
      | Error e -> Alcotest.failf "step: %s" (A.Ledger.error_to_string e)
      | Ok step ->
        List.iter
          (fun row ->
            let ls =
              match !live with
              | Some ls -> ls
              | None ->
                let ls = Ls.of_meta (Option.get (M.Tail.meta tail)) in
                live := Some ls;
                ls
            in
            Ls.observe ls row)
          step.M.Tail.rows
    in
    if chunked then begin
      (* Force several steps over a growing copy of the file. *)
      let bytes = read_file path in
      let part = temp_path ".jsonl" in
      let tail = M.Tail.create part in
      let live = ref None in
      let n = String.length bytes in
      let pos = ref 0 in
      while !pos < n do
        let next = min n (!pos + 113) in
        append_file part (String.sub bytes !pos (next - !pos));
        pos := next;
        match M.Tail.step tail with
        | Error e -> Alcotest.failf "chunk step: %s" (A.Ledger.error_to_string e)
        | Ok step ->
          List.iter
            (fun row ->
              let ls =
                match !live with
                | Some ls -> ls
                | None ->
                  let ls = Ls.of_meta (Option.get (M.Tail.meta tail)) in
                  live := Some ls;
                  ls
              in
              Ls.observe ls row)
            step.M.Tail.rows
      done;
      M.Dashboard.render ~dropped:(M.Tail.dropped tail) ~seal:(M.Tail.seal tail)
        ~meta:(Option.get (M.Tail.meta tail))
        (Option.get !live)
    end
    else begin
      feed ();
      M.Dashboard.render ~dropped:(M.Tail.dropped tail) ~seal:(M.Tail.seal tail)
        ~meta:(Option.get (M.Tail.meta tail))
        (Option.get !live)
    end
  in
  let f1 = frame p1 false in
  Alcotest.(check string) "identical runs render identical frames" f1 (frame p2 false);
  Alcotest.(check string) "follow converges to once" f1 (frame p1 true);
  Alcotest.(check bool) "frame mentions the seal" true
    (let needle = "sealed" in
     let nl = String.length needle in
     let rec scan i =
       i + nl <= String.length f1 && (String.sub f1 i nl = needle || scan (i + 1))
     in
     scan 0)

(* ------------------------------------------------------------------ *)
(* Golden CLI outputs                                                  *)
(* ------------------------------------------------------------------ *)

(* test/golden/stats holds three committed ledgers — a faulted DeepTune
   scalar run and a Bayes run (sim-unikraft, 40 rows each), and a faulted
   multi-objective flash-crowd random run at --workers 4 (sim-linux, 80
   rows) — with the CLI's outputs over them, recorded before the batch
   and live statistics became one fold:

     wayfinder analyze L                          > R.analyze.txt
     wayfinder analyze L --json --series R.series.csv --prom R.prom
                                                  > R.analyze.json
     wayfinder watch --once L                     > R.watch.txt
     wayfinder watch --once --alerts 'crash>0.2@10,stall>20,drift' L
                              > R.watch-alerts.txt 2> R.watch-alerts.err
     wayfinder compare [--json] deeptune.ledger.jsonl bayes.ledger.jsonl
                                                  > compare.{txt,json}
     wayfinder compare [--json] flash.ledger.jsonl flash.ledger.jsonl
                                                  > compare-flash.{txt,json}

   Each output is rendered here through the library, as bin/ does, and
   must match byte for byte; CI diffs the CLI's own output against the
   same files. *)

let golden = Filename.concat "golden" "stats"
let golden_file name = read_file (Filename.concat golden name)
let golden_alerts = "crash>0.2@10,stall>20,drift"

let load_golden run =
  match A.Ledger.load (Filename.concat golden (run ^ ".ledger.jsonl")) with
  | Ok l -> l
  | Error e -> Alcotest.failf "%s: %s" run (A.Ledger.error_to_string e)

let check_golden name got = Alcotest.(check string) name (golden_file name) got

(* [wayfinder watch --once], with the ALERT lines it prints to stderr. *)
let watch ?alerts run =
  let rules =
    match alerts with
    | None -> []
    | Some spec -> (
      match M.Rules.parse spec with Ok r -> r | Error e -> Alcotest.fail e)
  in
  let tail = M.Tail.create (Filename.concat golden (run ^ ".ledger.jsonl")) in
  let state = M.Rules.create rules in
  let err = Buffer.create 256 in
  match M.Tail.step tail with
  | Error e -> Alcotest.failf "%s: %s" run (A.Ledger.error_to_string e)
  | Ok step ->
    let meta = Option.get (M.Tail.meta tail) in
    let live = Ls.of_meta meta in
    List.iter
      (fun row ->
        Ls.observe live row;
        List.iter
          (fun (f : M.Rules.firing) ->
            Buffer.add_string err
              (Printf.sprintf "wayfinder: ALERT %s: %s\n" f.M.Rules.rule f.M.Rules.message))
          (M.Rules.evaluate state live))
      step.M.Tail.rows;
    ( M.Dashboard.render ~alerts:(M.Rules.active state) ~dropped:(M.Tail.dropped tail)
        ~seal:(M.Tail.seal tail) ~meta live,
      Buffer.contents err )

let test_golden_analyze_and_watch () =
  List.iter
    (fun run ->
      let ledger = load_golden run in
      let series = A.Series.of_ledger ledger in
      let report =
        A.Analyze.of_series ~label:(run ^ ".ledger") ~algo:ledger.A.Ledger.meta.A.Ledger.algo
          series
      in
      check_golden (run ^ ".analyze.txt") (A.Analyze.to_text report);
      check_golden (run ^ ".analyze.json") (A.Json.to_string (A.Analyze.to_json report) ^ "\n");
      check_golden (run ^ ".series.csv") (A.Analyze.series_csv series);
      check_golden (run ^ ".prom") (M.Prom.render ~stats:(A.Series.stats series) ());
      check_golden (run ^ ".watch.txt") (fst (watch run));
      let frame, err = watch ~alerts:golden_alerts run in
      check_golden (run ^ ".watch-alerts.txt") frame;
      check_golden (run ^ ".watch-alerts.err") err)
    [ "deeptune"; "bayes"; "flash" ]

let test_golden_compare () =
  List.iter
    (fun (name, runs) ->
      match A.Compare.make (List.map (fun (label, run) -> (label, A.Series.of_ledger (load_golden run))) runs) with
      | Error e -> Alcotest.fail e
      | Ok table ->
        check_golden (name ^ ".txt") (A.Compare.to_text table);
        check_golden (name ^ ".json") (A.Json.to_string (A.Compare.to_json table) ^ "\n"))
    [ ("compare", [ ("deeptune.ledger", "deeptune"); ("bayes.ledger", "bayes") ]);
      (* The CLI disambiguates a repeated label with the algorithm. *)
      ("compare-flash", [ ("flash.ledger", "flash"); ("flash.ledger[random]", "flash") ]) ]

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let test_rules_parse_roundtrip () =
  let rules =
    [ ("crash>0.5@40", M.Rules.Crash { threshold = 0.5; window = 40 });
      ("stall>30", M.Rules.Stall { iterations = 30 });
      ("starve<0.25", M.Rules.Starve { fraction = 0.25 });
      ("drift@12", M.Rules.Drift { window = 12 }) ]
  in
  List.iter
    (fun (spec, r) ->
      match M.Rules.parse spec with
      | Ok [ r' ] -> Alcotest.(check bool) spec true (r = r')
      | Ok _ | Error _ -> Alcotest.failf "misparsed: %s" spec)
    rules;
  (match M.Rules.parse "crash>0.5@40,stall>30,drift" with
  | Ok [ M.Rules.Crash { threshold = 0.5; window = 40 }; M.Rules.Stall { iterations = 30 };
         M.Rules.Drift { window = _ } ] ->
    ()
  | Ok _ | Error _ -> Alcotest.fail "combined spec misparsed");
  List.iter
    (fun bad ->
      match M.Rules.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [ "crash>1.5"; "crash>0.5@0"; "stall>0"; "starve<2"; "bogus"; "drift@-3"; "" ]

(* Hand-built rows for deterministic rule scenarios. *)
let row ~index ?value ?failure () =
  { A.Series.index;
    tokens = [| "x=1" |];
    value;
    failure;
    at_seconds = float_of_int (index + 1);
    eval_seconds = 1.;
    built = true;
    decide_seconds = 0.;
    belief = None;
    objectives = None }

let scalar_live () =
  Ls.create ~metric:P.Metric.throughput ~names:[| "x" |]
    ~stages:[| CS.Param.Runtime |] ~objectives:[||] ()

let test_rules_crash_edge_trigger () =
  let live = scalar_live () in
  let st = M.Rules.create [ M.Rules.Crash { threshold = 0.5; window = 4 } ] in
  let feed r =
    Ls.observe live r;
    M.Rules.evaluate st live
  in
  let fired = ref 0 in
  for i = 0 to 3 do
    let fs = feed (row ~index:i ~failure:P.Failure.Runtime_crash ()) in
    fired := !fired + List.length fs
  done;
  Alcotest.(check int) "fires exactly once while condition holds" 1 !fired;
  Alcotest.(check (list string)) "active while high" [ "crash" ] (M.Rules.active st);
  (* Enough successes clear the window... *)
  for i = 4 to 9 do
    ignore (feed (row ~index:i ~value:100. ()))
  done;
  Alcotest.(check (list string)) "cleared" [] (M.Rules.active st);
  (* ...and the rule re-arms. *)
  let refired = ref 0 in
  for i = 10 to 13 do
    let fs = feed (row ~index:i ~failure:P.Failure.Runtime_crash ()) in
    refired := !refired + List.length fs
  done;
  Alcotest.(check int) "re-fires after clearing" 1 !refired

let test_rules_stall () =
  let live = scalar_live () in
  let st = M.Rules.create [ M.Rules.Stall { iterations = 3 } ] in
  let feed r =
    Ls.observe live r;
    M.Rules.evaluate st live
  in
  ignore (feed (row ~index:0 ~value:10. ()));
  ignore (feed (row ~index:1 ~value:20. ()));
  (* Two non-improving rows: 3 iterations since the improvement at #2 not
     yet reached. *)
  ignore (feed (row ~index:2 ~value:5. ()));
  Alcotest.(check (list string)) "not yet stalled" [] (M.Rules.active st);
  let fs3 = feed (row ~index:3 ~value:5. ()) in
  let fs4 = feed (row ~index:4 ~value:5. ()) in
  Alcotest.(check int) "fires once at the threshold" 1
    (List.length fs3 + List.length fs4);
  Alcotest.(check (list string)) "stall active" [ "stall" ] (M.Rules.active st);
  (* An improvement clears and re-arms it. *)
  ignore (feed (row ~index:5 ~value:50. ()));
  Alcotest.(check (list string)) "improvement clears stall" [] (M.Rules.active st)

let test_rules_starve_needs_busy () =
  let live = scalar_live () in
  let st = M.Rules.create [ M.Rules.Starve { fraction = 0.5 } ] in
  Ls.observe live (row ~index:0 ~value:1. ());
  Alcotest.(check int) "no busy signal, no firing" 0
    (List.length (M.Rules.evaluate st live));
  Ls.observe live (row ~index:1 ~value:1. ());
  let fs = M.Rules.evaluate st ~worker_busy:0.2 live in
  Alcotest.(check int) "starved pool fires" 1 (List.length fs);
  Alcotest.(check int) "healthy pool clears" 0
    (List.length (M.Rules.evaluate st ~worker_busy:0.9 live))

let test_rules_drift () =
  let live = scalar_live () in
  let st = M.Rules.create [ M.Rules.Drift { window = 5 } ] in
  let feed r =
    Ls.observe live r;
    M.Rules.evaluate st live
  in
  (* Baseline window: healthy values around 100. *)
  for i = 0 to 4 do
    ignore (feed (row ~index:i ~value:100. ()))
  done;
  (* Second window: the distribution triples — well past the default 50%
     mean margin. *)
  let fired = ref 0 in
  for i = 5 to 9 do
    fired := !fired + List.length (feed (row ~index:i ~value:300. ()))
  done;
  Alcotest.(check int) "drifted tail fires once" 1 !fired;
  Alcotest.(check (list string)) "drift active" [ "drift" ] (M.Rules.active st)

(* A row over three parameters, one per stage, whose tokens are a
   function of the configuration number [config]. *)
let stream_row ~index ~config ~value ~failure =
  { A.Series.index;
    tokens = [| Printf.sprintf "b%d" (config land 1); Printf.sprintf "t%d" (config mod 3);
                Printf.sprintf "i%d" config |];
    value = (if failure = None then Some value else None);
    failure;
    at_seconds = float_of_int (index + 1) *. 1.5;
    eval_seconds = 1. +. float_of_int (config mod 5);
    built = config mod 2 = 0;
    decide_seconds = 0.;
    belief = None;
    objectives = None }

let stream_names = [| "b"; "t"; "i" |]
let stream_stages = CS.Param.[| Compile_time; Boot_time; Runtime |]

let snapshot_eq (a : A.Progress.snapshot) (b : A.Progress.snapshot) =
  a.iteration = b.iteration
  && opt_eq fl_eq a.best b.best
  && fl_eq a.regret_slope b.regret_slope
  && fl_eq a.crash_rate b.crash_rate
  && opt_eq fl_eq a.cache_hit_rate b.cache_hit_rate
  && opt_eq fl_eq a.worker_busy b.worker_busy
  && fl_eq a.virtual_seconds b.virtual_seconds

(* The windowed series against the old full-row one: random streams of
   successes, crashes and transients over repeated configurations, with
   crash, stall and drift rules at windows 1–60.  Progress must agree
   after every row; firings, messages and active rules after every
   [every]-th row, where both evaluate (at 3, a drift rule may first
   see its baseline window after the ring has moved past it); and stats
   after every [stride]-th row and the last (a stride past the stream
   never asks before the end, so the fold keys only its pending rows). *)
let windowed_series_prop =
  QCheck2.Test.make ~count:300 ~name:"windowed live series == full-row series"
    QCheck2.Gen.(
      let rule =
        oneof
          [ map2 (fun threshold window -> M.Rules.Crash { threshold; window })
              (oneofl [ 0.; 0.2; 0.5; 0.9 ]) (int_range 1 60);
            map (fun iterations -> M.Rules.Stall { iterations }) (int_range 1 30);
            map (fun window -> M.Rules.Drift { window }) (int_range 1 60) ]
      in
      let cell =
        triple (int_range 0 7)
          (oneof [ float_range 0. 100.; float_range 100. 1000.; pure 50. ])
          (frequency
             [ (5, pure None); (2, pure (Some P.Failure.Runtime_crash));
               (1, pure (Some P.Failure.Spurious_failure));
               (1, pure (Some P.Failure.Build_failure)) ])
      in
      quad (list_size (int_range 0 3) rule) (list_size (int_range 0 200) cell)
        (oneofl [ 1; 7; 1_000 ]) (oneofl [ 1; 1; 3 ]))
    (fun (rules, cells, stride, every) ->
      let metric = P.Metric.throughput in
      let live =
        Ls.create ?window:(M.Rules.window rules) ~metric ~names:stream_names
          ~stages:stream_stages ~objectives:[||] ()
      in
      let old =
        Old_series.create ~metric ~names:stream_names ~stages:stream_stages ~objectives:[||] ()
      in
      let st = M.Rules.create rules and old_st = Old_series.rules rules in
      let n = List.length cells in
      List.for_all
        (fun (index, (config, value, failure)) ->
          let row = stream_row ~index ~config ~value ~failure in
          Ls.observe live row;
          Old_series.observe old row;
          let evaluated = (index + 1) mod every = 0 in
          let fired = if evaluated then M.Rules.evaluate st live else [] in
          let old_fired = if evaluated then Old_series.evaluate old_st old else [] in
          let stats_ok =
            ((index + 1) mod stride <> 0 && index + 1 <> n)
            || stats_eq (Ls.stats live) (Old_series.stats old)
               && stats_eq (Ls.stats live)
                    (Oracle.stats
                       { A.Series.metric; names = stream_names; stages = stream_stages;
                         rows = Old_series.rows old; objectives = [||] })
          in
          fired = old_fired
          && M.Rules.active st = Old_series.active old_st
          && snapshot_eq (Ls.progress live) (Old_series.progress old)
          && stats_ok)
        (List.mapi (fun i c -> (i, c)) cells))

(* A series keeps a window, not the run: 8,000 rows over 16
   configurations, with rules installed and [stats] never called, reach
   no more words than 1,000 rows do (a fold that kept its pending rows
   grew 7.9×). *)
let test_series_memory_bounded () =
  let rules =
    match M.Rules.parse "crash>0.2@10,stall>20,drift" with Ok r -> r | Error e -> Alcotest.fail e
  in
  let words rows =
    let live =
      Ls.create ?window:(M.Rules.window rules) ~metric:P.Metric.throughput ~names:stream_names
        ~stages:stream_stages ~objectives:[||] ()
    in
    let st = M.Rules.create rules in
    for index = 0 to rows - 1 do
      let config = index * 7 mod 16 in
      let failure = if index mod 5 = 0 then Some P.Failure.Runtime_crash else None in
      Ls.observe live
        (stream_row ~index ~config ~value:(float_of_int (config * 10)) ~failure);
      ignore (M.Rules.evaluate st live)
    done;
    Obj.reachable_words (Obj.repr live)
  in
  let small = words 1_000 and large = words 8_000 in
  if float_of_int large >= 1.05 *. float_of_int small then
    Alcotest.failf "8,000 rows reach %d words, 1,000 rows %d" large small

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)
(* ------------------------------------------------------------------ *)

(* Per-name span durations summed in file order: the accumulation order
   of the recorder's histograms. *)
let phase_totals (t : M.Profile.t) clock =
  let dur (sp : M.Profile.span) =
    match clock with M.Profile.Wall -> sp.wall_s | M.Profile.Virtual -> sp.virtual_s
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (sp : M.Profile.span) ->
      match Hashtbl.find_opt tbl sp.name with
      | Some r -> r := !r +. dur sp
      | None -> Hashtbl.add tbl sp.name (ref (dur sp)))
    t.M.Profile.spans;
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) tbl []

(* Drive a real (unfrozen) recorder through the driver with a JSONL sink
   attached; per-phase virtual and wall sums recovered from the trace
   must equal the driver's own metrics registry bitwise — the spans ARE
   the histograms' feed, so any divergence is a codec bug.  At workers 4
   too: the engine evaluates every launch inline on one domain, so the
   file order is the emission order, which is the order the histograms
   accumulated in. *)
let test_profile_reconciles_with_metrics () =
  List.iter
    (fun workers ->
      let buf = Buffer.create 8192 in
      let obs = Obs.Recorder.create ~sinks:[ Obs.Sink.jsonl (Buffer.add_string buf) ] () in
      let target = C.with_fault_rate ~fault_rate:0.3 ~seed:11 (C.target ()) in
      let algo = C.algorithm "random" ~seed:11 target.P.Target.space in
      let result =
        P.Driver.run ~seed:11 ~obs ~workers ~target ~algorithm:algo
          ~budget:(P.Driver.Iterations 15) ()
      in
      match M.Profile.of_string (Buffer.contents buf) with
      | Error e -> Alcotest.failf "profile: %s" e
      | Ok t ->
        Alcotest.(check int) "no dropped lines in a clean trace" 0 t.M.Profile.dropped;
        let virt = phase_totals t M.Profile.Virtual in
        let wall = phase_totals t M.Profile.Wall in
        let m = result.P.Driver.metrics in
        List.iter
          (fun (_, span_name) ->
            let from_trace = Option.value ~default:0. (List.assoc_opt span_name virt) in
            let from_metrics = Obs.Metrics.sum m (span_name ^ ".virtual_s") in
            if not (fl_eq from_trace from_metrics) then
              Alcotest.failf "workers %d, %s: trace %h <> metrics %h" workers span_name
                from_trace from_metrics)
          P.Driver.virtual_phases;
        (* Wall-clocked phases reconcile the same way. *)
        List.iter
          (fun span_name ->
            let from_trace = Option.value ~default:0. (List.assoc_opt span_name wall) in
            let from_metrics = Obs.Metrics.sum m (span_name ^ ".wall_s") in
            if not (fl_eq from_trace from_metrics) then
              Alcotest.failf "workers %d, %s: trace %h <> metrics %h (wall)" workers span_name
                from_trace from_metrics)
          [ "driver.iteration"; "driver.propose"; "driver.validate"; "driver.observe" ])
    [ 1; 4 ]

(* Every Bayes proposal past the warm-up fits the GP and then acquires
   from its candidate pool: as many [bayes.acquire] spans as
   [bayes.gp_fit] spans, each directly under [driver.propose]. *)
let test_profile_attributes_bayes_steps () =
  let buf = Buffer.create 65536 in
  let obs = Obs.Recorder.create ~sinks:[ Obs.Sink.jsonl (Buffer.add_string buf) ] () in
  let target = C.with_fault_rate ~fault_rate:0.3 ~seed:5 (C.target ()) in
  let algo = C.algorithm "bayes" ~seed:5 target.P.Target.space in
  ignore
    (P.Driver.run ~seed:5 ~obs ~workers:1 ~target ~algorithm:algo
       ~budget:(P.Driver.Iterations 15) ());
  match M.Profile.of_string (Buffer.contents buf) with
  | Error e -> Alcotest.failf "profile: %s" e
  | Ok t ->
    let spans name = List.length (List.filter (fun s -> s.M.Profile.name = name) t.M.Profile.spans) in
    let rec under_propose name parent (node : M.Profile.node) =
      (if node.M.Profile.node_name = name && parent = "driver.propose" then node.M.Profile.count
       else 0)
      + List.fold_left (fun n c -> n + under_propose name node.M.Profile.node_name c) 0
          node.M.Profile.children
    in
    let nested name = List.fold_left (fun n r -> n + under_propose name "" r) 0 t.M.Profile.roots in
    let fits = spans "bayes.gp_fit" in
    Alcotest.(check bool) "the run fitted the GP" true (fits > 0);
    Alcotest.(check int) "one acquisition per fit" fits (spans "bayes.acquire");
    Alcotest.(check int) "every fit under driver.propose" fits (nested "bayes.gp_fit");
    Alcotest.(check int) "every acquisition under driver.propose" fits (nested "bayes.acquire")

(* A hand-built trace with known geometry: parent [0,6], children [1,3]
   and [4,5].  Span events arrive in end order (children first). *)
(* Stamps on the recorder's microsecond grid tie often: the zero-length
   virtual phases land in the microsecond the evaluation ended and the
   next span began, and a child can end in its parent's last
   microsecond.  Points at the instant a span opens stay its preceding
   siblings, and a child ending with its parent stays inside it, however
   the float sums round. *)
let test_profile_microsecond_ties () =
  let span name began wall =
    Printf.sprintf
      "{\"type\":\"span\",\"name\":\"%s\",\"wall_s\":%s,\"virtual_s\":1,\"began_wall_s\":%s,\"began_virtual_s\":0}"
      name wall began
  in
  let trace =
    String.concat "\n"
      [ Obs.Sink.schema_header ~kind:"trace";
        span "driver.propose" "0.000001" "0.000002";
        span "driver.evaluate" "0.000003" "0.000001";
        span "driver.build" "0.000004" "0";
        span "driver.boot" "0.000004" "0";
        (* 4e-6 +. 9e-6 rounds above 1.3e-5, the parent's end. *)
        span "driver.observe" "0.000004" "0.000009";
        span "driver.iteration" "0" "0.000013" ]
  in
  match M.Profile.of_string trace with
  | Error e -> Alcotest.failf "profile: %s" e
  | Ok t -> (
    match t.M.Profile.roots with
    | [ root ] ->
      Alcotest.(check string) "root" "driver.iteration" root.M.Profile.node_name;
      Alcotest.(check (list (pair string int)))
        "every phase a direct child, none nested in a sibling"
        [ ("driver.propose", 0); ("driver.evaluate", 0); ("driver.build", 0);
          ("driver.boot", 0); ("driver.observe", 0) ]
        (List.map
           (fun c -> (c.M.Profile.node_name, List.length c.M.Profile.children))
           root.M.Profile.children)
    | roots -> Alcotest.failf "expected one root, got %d" (List.length roots))

let test_profile_tree_shape () =
  let span name began wall =
    Printf.sprintf
      "{\"type\":\"span\",\"name\":\"%s\",\"wall_s\":%g,\"virtual_s\":0,\"began_wall_s\":%g,\"began_virtual_s\":0}"
      name wall began
  in
  let trace =
    String.concat "\n"
      [ Obs.Sink.schema_header ~kind:"trace";
        span "child" 1. 2.;
        span "child" 4. 1.;
        span "parent" 0. 6.;
        "this line is torn garba" ]
  in
  match M.Profile.of_string trace with
  | Error e -> Alcotest.failf "profile: %s" e
  | Ok t -> (
    Alcotest.(check int) "torn line dropped" 1 t.M.Profile.dropped;
    match t.M.Profile.roots with
    | [ root ] -> (
      Alcotest.(check string) "root name" "parent" root.M.Profile.node_name;
      Alcotest.(check (float 0.)) "root total" 6. root.M.Profile.wall_total;
      match root.M.Profile.children with
      | [ c ] ->
        Alcotest.(check string) "same-name siblings merged" "child"
          c.M.Profile.node_name;
        Alcotest.(check int) "both occurrences counted" 2 c.M.Profile.count;
        Alcotest.(check (float 0.)) "children total" 3. c.M.Profile.wall_total;
        Alcotest.(check (float 0.)) "parent self = total - children" 3.
          (M.Profile.self M.Profile.Wall root);
        let flame = M.Profile.flamegraph t M.Profile.Wall in
        Alcotest.(check bool) "flamegraph paths" true
          (let has needle =
             let nl = String.length needle in
             let rec scan i =
               i + nl <= String.length flame
               && (String.sub flame i nl = needle || scan (i + 1))
             in
             scan 0
           in
           has "parent 3000000" && has "parent;child 3000000")
      | _ -> Alcotest.fail "expected one merged child")
    | _ -> Alcotest.fail "expected a single root")

let test_profile_rejects_foreign_header () =
  match M.Profile.of_string "{\"hello\":1}\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a foreign header"

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nl = String.length needle in
  let rec scan i = i + nl <= String.length hay && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let test_prom_histogram_format () =
  let m = Obs.Metrics.create () in
  List.iter (Obs.Metrics.observe m "phase.virtual_s") [ 1.0; 2.0; 4.0; 8.0 ];
  Obs.Metrics.incr m ~by:3. "driver.iterations";
  let text = M.Prom.render ~snapshot:(Obs.Metrics.snapshot m) () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains text needle))
    [ "# TYPE wayfinder_driver_iterations counter\nwayfinder_driver_iterations 3\n";
      "# TYPE wayfinder_phase_virtual_s histogram\n";
      (* Buckets are cumulative... *)
      "wayfinder_phase_virtual_s_bucket{le=\"1\"} 1\n";
      "wayfinder_phase_virtual_s_bucket{le=\"2\"} 2\n";
      "wayfinder_phase_virtual_s_bucket{le=\"4\"} 3\n";
      "wayfinder_phase_virtual_s_bucket{le=\"8\"} 4\n";
      (* ...with the mandatory +Inf bucket equal to the count. *)
      "wayfinder_phase_virtual_s_bucket{le=\"+Inf\"} 4\n";
      "wayfinder_phase_virtual_s_sum 15\n";
      "wayfinder_phase_virtual_s_count 4\n" ];
  (* One sample on every finite bound: each bound's text is the number
     writer's (an integer, else %.17g), fractions from 2^-20 up. *)
  let m = Obs.Metrics.create () in
  let bounds = List.init (Obs.Metrics.n_buckets - 1) Obs.Metrics.bucket_bound in
  List.iter (Obs.Metrics.observe m "all") bounds;
  let text = M.Prom.render ~snapshot:(Obs.Metrics.snapshot m) () in
  List.iteri
    (fun i b ->
      let le = if Float.is_integer b then string_of_int (int_of_float b) else Printf.sprintf "%.17g" b in
      let needle = Printf.sprintf "wayfinder_all_bucket{le=\"%s\"} %d\n" le (i + 1) in
      Alcotest.(check bool) needle true (contains text needle))
    bounds

let test_prom_stats_gauges () =
  let live = scalar_live () in
  Ls.observe live (row ~index:0 ~value:42. ());
  Ls.observe live (row ~index:1 ~failure:P.Failure.Runtime_crash ());
  let text = M.Prom.render ~stats:(Ls.stats live) () in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains text needle))
    [ "# TYPE wayfinder_live_iteration gauge\nwayfinder_live_iteration 2\n";
      "wayfinder_live_best 42\n";
      "wayfinder_live_crash_rate 0.5\n";
      "wayfinder_live_distinct_configs 1\n" ]

let test_prom_sanitizes_names () =
  Alcotest.(check string) "bad chars replaced" "wayfinder_a_b_c:d"
    (M.Prom.metric_name "a.b-c:d")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "monitor"
    [ ( "live_series",
        [ QCheck_alcotest.to_alcotest prefix_parity_prop;
          Alcotest.test_case "scenario prefixes (multi-objective)" `Quick
            test_prefix_parity_scenario;
          QCheck_alcotest.to_alcotest slice_helpers_prop;
          QCheck_alcotest.to_alcotest windowed_series_prop;
          Alcotest.test_case "memory stays bounded" `Quick test_series_memory_bounded ] );
      ( "tail",
        [ Alcotest.test_case "whole file" `Quick test_tail_whole_file;
          Alcotest.test_case "torn writes stay pending" `Quick test_tail_torn_writes;
          Alcotest.test_case "truncation resets" `Quick test_tail_truncation_resets;
          Alcotest.test_case "drop parity with salvage" `Quick
            test_tail_drop_parity_with_salvage;
          Alcotest.test_case "crc mismatch is a drop" `Quick
            test_tail_crc_mismatch_is_a_drop;
          Alcotest.test_case "resume seals unverified" `Quick
            test_tail_resume_is_sealed_unverified ] );
      ( "dashboard",
        [ Alcotest.test_case "deterministic frames" `Quick test_dashboard_deterministic ] );
      ( "golden",
        [ Alcotest.test_case "analyze, series, prom and watch outputs" `Quick
            test_golden_analyze_and_watch;
          Alcotest.test_case "compare outputs" `Quick test_golden_compare ] );
      ( "rules",
        [ Alcotest.test_case "parse round-trip" `Quick test_rules_parse_roundtrip;
          Alcotest.test_case "crash edge-trigger" `Quick test_rules_crash_edge_trigger;
          Alcotest.test_case "stall" `Quick test_rules_stall;
          Alcotest.test_case "starve needs busy signal" `Quick test_rules_starve_needs_busy;
          Alcotest.test_case "drift" `Quick test_rules_drift ] );
      ( "profile",
        [ Alcotest.test_case "microsecond ties" `Quick test_profile_microsecond_ties;
          Alcotest.test_case "reconciles with driver metrics" `Quick
            test_profile_reconciles_with_metrics;
          Alcotest.test_case "tree shape" `Quick test_profile_tree_shape;
          Alcotest.test_case "rejects foreign header" `Quick
            test_profile_rejects_foreign_header;
          Alcotest.test_case "attributes bayes steps" `Quick test_profile_attributes_bayes_steps ] );
      ( "prom",
        [ Alcotest.test_case "histogram format" `Quick test_prom_histogram_format;
          Alcotest.test_case "stats gauges" `Quick test_prom_stats_gauges;
          Alcotest.test_case "name sanitization" `Quick test_prom_sanitizes_names ] )
    ]
