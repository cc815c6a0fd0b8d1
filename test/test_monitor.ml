(* The streaming-observability conformance suite.

   The tentpole property: a Live_series fed one row at a time is
   bitwise-identical ([Int64.bits_of_float] on every float) to a batch
   Series rebuild at EVERY prefix, across algorithms, engines and the
   multi-objective scenario harness.  Around it: the tail reader's
   torn-write/truncation/seal semantics, the alert rules' grammar and
   edge-triggering, the span profiler's reconciliation against the
   driver's own metrics registry, and the Prometheus exposition. *)

module C = Conformance
module M = Wayfinder_monitor
module A = Wayfinder_analytics
module P = Wayfinder_platform
module Obs = Wayfinder_obs
module CS = Wayfinder_configspace
module Ls = M.Live_series

(* ------------------------------------------------------------------ *)
(* Bitwise stats comparison                                            *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float
let fl_eq a b = bits a = bits b

let opt_eq eq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> eq a b
  | _ -> false

let stats_eq (a : Ls.stats) (b : Ls.stats) =
  a.Ls.length = b.Ls.length
  && opt_eq (fun (i, v) (j, w) -> i = j && fl_eq v w) a.Ls.best b.Ls.best
  && fl_eq a.Ls.best_so_far b.Ls.best_so_far
  && fl_eq a.Ls.regret_slope b.Ls.regret_slope
  && fl_eq a.Ls.crash_rate b.Ls.crash_rate
  && fl_eq a.Ls.transient_rate b.Ls.transient_rate
  && fl_eq a.Ls.windowed_crash_rate b.Ls.windowed_crash_rate
  && fl_eq a.Ls.windowed_transient_rate b.Ls.windowed_transient_rate
  && a.Ls.evaluated = b.Ls.evaluated
  && a.Ls.distinct_configs = b.Ls.distinct_configs
  && a.Ls.distinct_stage_keys = b.Ls.distinct_stage_keys
  && a.Ls.pareto_size = b.Ls.pareto_size
  && opt_eq fl_eq a.Ls.hypervolume_proxy b.Ls.hypervolume_proxy
  && fl_eq a.Ls.virtual_seconds b.Ls.virtual_seconds
  && fl_eq a.Ls.total_eval_seconds b.Ls.total_eval_seconds

let stats_pp (s : Ls.stats) =
  Printf.sprintf
    "{n=%d bsf=%h slope=%h crash=%h/%h trans=%h/%h eval=%d cfg=%d stage=%d vt=%h evs=%h}"
    s.Ls.length s.Ls.best_so_far s.Ls.regret_slope s.Ls.crash_rate
    s.Ls.windowed_crash_rate s.Ls.transient_rate s.Ls.windowed_transient_rate
    s.Ls.evaluated s.Ls.distinct_configs s.Ls.distinct_stage_keys
    s.Ls.virtual_seconds s.Ls.total_eval_seconds

(* Space geometry of the conformance target, shared by every prefix
   check. *)
let conf_names, conf_stages =
  let params = CS.Space.params (C.space ()) in
  ( Array.map (fun (p : CS.Param.t) -> p.CS.Param.name) params,
    Array.map (fun (p : CS.Param.t) -> p.CS.Param.stage) params )

(* Check live == batch at every prefix of [rows]. *)
let check_prefix_parity ~metric ~objectives rows =
  let live = Ls.create ~metric ~names:conf_names ~stages:conf_stages ~objectives () in
  List.iteri
    (fun i row ->
      Ls.observe live row;
      let k = i + 1 in
      let batch =
        { A.Series.metric;
          names = conf_names;
          stages = conf_stages;
          rows = Array.of_list (List.filteri (fun j _ -> j < k) rows);
          objectives }
      in
      let got = Ls.stats live and want = Ls.stats_of_series batch in
      if not (stats_eq got want) then
        Alcotest.failf "prefix %d diverged:\n  live  %s\n  batch %s" k (stats_pp got)
          (stats_pp want))
    rows

let collect_rows () =
  let rows = ref [] in
  let on_record entry belief = rows := A.Ledger.row_of_entry entry belief :: !rows in
  (rows, on_record)

(* The tentpole property: random seeds and fault rates, every algorithm,
   both engine widths. *)
let prefix_parity_prop =
  QCheck2.Test.make ~count:15 ~name:"live series == batch series at every prefix"
    QCheck2.Gen.(
      tup4 (oneofl [ "random"; "grid"; "deeptune" ]) (oneofl [ 1; 4 ])
        (int_range 1 1000) (oneofl [ 0.; 0.3 ]))
    (fun (name, workers, seed, fault_rate) ->
      let rows, on_record = collect_rows () in
      let (_ : C.outcome) =
        C.run ~engine:(`Workers workers) ~seed ~fault_rate ~on_record name
      in
      check_prefix_parity ~metric:P.Metric.throughput ~objectives:[||]
        (List.rev !rows);
      true)

(* Multi-objective scenario runs carry objective vectors; the live
   Pareto front and hypervolume must track the batch ones. *)
let test_prefix_parity_scenario () =
  List.iter
    (fun workers ->
      let rows, on_record = collect_rows () in
      let (_ : C.outcome * int) =
        C.run_scenario ~engine:(`Workers workers) ~seed:13 ~fault_rate:0.25 ~on_record
          "deeptune-multi"
      in
      check_prefix_parity
        ~metric:(P.Metric.make ~name:"score" ~unit_name:"score" ())
        ~objectives:C.scenario_spec (List.rev !rows))
    [ 1; 4 ]

(* of_meta wiring: folding a loaded ledger's rows through a meta-shaped
   live series matches the batch series of the same ledger. *)
let test_of_meta_matches_of_ledger path =
  match A.Ledger.load path with
  | Error e -> Alcotest.failf "load: %s" (A.Ledger.error_to_string e)
  | Ok ledger ->
    let series = A.Series.of_ledger ledger in
    let live = Ls.of_meta ledger.A.Ledger.meta in
    Array.iter (Ls.observe live) series.A.Series.rows;
    Alcotest.(check bool) "of_meta stats match" true
      (stats_eq (Ls.stats live) (Ls.stats_of_series series))

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
    write_file part bytes;
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
  write_file half (String.sub bytes 0 (String.length bytes / 2));
  let first = M.Tail.create half in
  (match M.Tail.step first with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "prefix read: %s" (A.Ledger.error_to_string e));
  let offset = M.Tail.offset first in
  let rows_read = M.Tail.rows_read first in
  let meta = Option.get (M.Tail.meta first) in
  write_file half bytes;
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
        pos := min n (!pos + 113);
        write_file part (String.sub bytes 0 !pos);
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
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let test_rules_parse_roundtrip () =
  let rules =
    [ M.Rules.Crash { threshold = 0.5; window = 40 };
      M.Rules.Stall { iterations = 30 };
      M.Rules.Starve { fraction = 0.25 };
      M.Rules.Drift { window = 12 } ]
  in
  List.iter
    (fun r ->
      match M.Rules.parse (M.Rules.rule_to_string r) with
      | Ok [ r' ] ->
        Alcotest.(check bool) (M.Rules.rule_to_string r) true (r = r')
      | Ok _ | Error _ -> Alcotest.failf "round-trip failed: %s" (M.Rules.rule_to_string r))
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

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)
(* ------------------------------------------------------------------ *)

(* Drive a real (unfrozen) recorder through the driver with a JSONL sink
   attached; per-phase virtual sums recovered from the trace must equal
   the driver's own metrics registry bitwise — the spans ARE the
   histograms' feed, so any divergence is a codec bug.  Single worker:
   with several recording domains the per-name emission order (and so
   the float accumulation order) is not stable across the two
   structures, only the multiset is. *)
let test_profile_reconciles_with_metrics () =
  let buf = Buffer.create 8192 in
  let obs = Obs.Recorder.create ~sinks:[ Obs.Sink.jsonl (Buffer.add_string buf) ] () in
  let target = C.faulty_target ~fault_rate:0.3 ~seed:11 in
  let algo = C.algorithm "random" ~seed:11 target.P.Target.space in
  let result =
    P.Driver.run ~seed:11 ~obs ~workers:1 ~target ~algorithm:algo
      ~budget:(P.Driver.Iterations 15) ()
  in
  match M.Profile.of_string (Buffer.contents buf) with
  | Error e -> Alcotest.failf "profile: %s" e
  | Ok t ->
    Alcotest.(check int) "no dropped lines in a clean trace" 0 t.M.Profile.dropped;
    let virt = M.Profile.phase_totals t M.Profile.Virtual in
    let wall = M.Profile.phase_totals t M.Profile.Wall in
    let m = result.P.Driver.metrics in
    List.iter
      (fun (_, span_name) ->
        let from_trace = Option.value ~default:0. (List.assoc_opt span_name virt) in
        let from_metrics = Obs.Metrics.sum m (span_name ^ ".virtual_s") in
        if not (fl_eq from_trace from_metrics) then
          Alcotest.failf "%s: trace %h <> metrics %h" span_name from_trace from_metrics)
      P.Driver.virtual_phases;
    (* Wall-clocked phases reconcile the same way. *)
    List.iter
      (fun span_name ->
        let from_trace = Option.value ~default:0. (List.assoc_opt span_name wall) in
        let from_metrics = Obs.Metrics.sum m (span_name ^ ".wall_s") in
        if not (fl_eq from_trace from_metrics) then
          Alcotest.failf "%s: trace %h <> metrics %h (wall)" span_name from_trace
            from_metrics)
      [ "driver.iteration"; "driver.propose"; "driver.validate"; "driver.observe" ]

(* Every Bayes proposal past the warm-up fits the GP and then acquires
   from its candidate pool: as many [bayes.acquire] spans as
   [bayes.gp_fit] spans, each directly under [driver.propose]. *)
let test_profile_attributes_bayes_steps () =
  let buf = Buffer.create 65536 in
  let obs = Obs.Recorder.create ~sinks:[ Obs.Sink.jsonl (Buffer.add_string buf) ] () in
  let target = C.faulty_target ~fault_rate:0.3 ~seed:5 in
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
      "wayfinder_phase_virtual_s_count 4\n" ]

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
            test_prefix_parity_scenario ] );
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
      ( "rules",
        [ Alcotest.test_case "parse round-trip" `Quick test_rules_parse_roundtrip;
          Alcotest.test_case "crash edge-trigger" `Quick test_rules_crash_edge_trigger;
          Alcotest.test_case "stall" `Quick test_rules_stall;
          Alcotest.test_case "starve needs busy signal" `Quick test_rules_starve_needs_busy;
          Alcotest.test_case "drift" `Quick test_rules_drift ] );
      ( "profile",
        [ Alcotest.test_case "reconciles with driver metrics" `Quick
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
