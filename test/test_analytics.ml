(* The analytics layer: exact-round-trip JSON codec, the ledger-vs-live
   conformance property ("series recomputed from a ledger are
   byte-identical to series computed live"), calibration edge cases and
   the compare table. *)

open Wayfinder_platform
module A = Wayfinder_analytics
module Param = Wayfinder_configspace.Param

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let reparse_number v =
  match A.Json.parse (A.Json.number_to_string v) with
  | Ok (A.Json.Num x) -> x
  | Ok _ | Error _ -> Alcotest.fail "number did not parse back to a number"

let prop_json_float_roundtrip =
  QCheck2.Test.make ~name:"number_to_string round-trips any float bit-for-bit" ~count:500
    QCheck2.Gen.float
    (fun v ->
      let back = reparse_number v in
      if Float.is_nan v then Float.is_nan back
      else Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float back))

let test_json_special_values () =
  List.iter
    (fun (v, expect) ->
      Alcotest.(check string) expect expect (A.Json.number_to_string v);
      let back = reparse_number v in
      Alcotest.(check bool) (expect ^ " parses back") true
        (if Float.is_nan v then Float.is_nan back
         else Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float back)))
    [ (nan, "NaN");
      (infinity, "Infinity");
      (neg_infinity, "-Infinity");
      (0.1, "0.10000000000000001");
      (42., "42");
      (-0., "-0") ]

(* Floats where a writer can go wrong: signed zeros, non-finite values,
   subnormals, and integers on both sides of 1e15 and 1e16, where the
   integer path ends. *)
let edge_floats =
  [ 0.; -0.; infinity; neg_infinity; nan; 5e-324; -5e-324; 2.2250738585072009e-308;
    0.1; -1.5; 1e15 -. 1.; 1e15; 1e15 +. 1.; -1e15; 1e15 +. 0.5; 1e16 -. 2.; 1e16; 1e16 +. 2.;
    -1e16; 9007199254740992.; 1e300; 123456.789 ]

let gen_edge_float =
  QCheck2.Gen.(
    frequency
      [ (3, oneofl edge_floats);
        (3, float);
        (2, map float_of_int (int_range (-1000) 1000));
        (1, map (fun d -> 1e15 +. float_of_int d) (int_range (-5000) 5000));
        (1, map (fun d -> 1e16 +. (2. *. float_of_int d)) (int_range (-5000) 5000)) ])

let test_json_integer_boundary () =
  List.iter
    (fun (v, expect) -> Alcotest.(check string) expect expect (A.Json.number_to_string v))
    [ (999999999999999., "999999999999999");
      (1e15, "1000000000000000");
      (9999999999999998., "9999999999999998");
      (1e16, "10000000000000000");
      (-1e16, "-10000000000000000");
      (1e16 +. 2., "10000000000000002");
      (5e-324, "4.9406564584124654e-324") ]

let test_json_string_escapes () =
  let s = A.Json.Str "a\"b\\c\nd\t\x01" in
  let rendered = A.Json.to_string s in
  Alcotest.(check bool) "escapes render" true
    (rendered = {|"a\"b\\c\nd\t\u0001"|});
  (match A.Json.parse rendered with
  | Ok (A.Json.Str back) -> Alcotest.(check string) "string round-trip" "a\"b\\c\nd\t\x01" back
  | Ok _ | Error _ -> Alcotest.fail "not a string");
  (* Every byte renders as it always has, through the escaper trace attrs
     share. *)
  String.iter
    (fun c ->
      let expected =
        match c with
        | '"' -> {|"\""|}
        | '\\' -> {|"\\"|}
        | '\n' -> {|"\n"|}
        | '\r' -> {|"\r"|}
        | '\t' -> {|"\t"|}
        | c when Char.code c < 0x20 -> Printf.sprintf {|"\u%04x"|} (Char.code c)
        | c -> Printf.sprintf "\"%c\"" c
      in
      let s = String.make 1 c in
      Alcotest.(check string) (Printf.sprintf "byte %d" (Char.code c)) expected
        (A.Json.to_string (A.Json.Str s));
      Alcotest.(check string) (Printf.sprintf "attr byte %d" (Char.code c)) expected
        (Wayfinder_obs.Attr.json_of_value (Wayfinder_obs.Attr.String s)))
    (String.init 256 Char.chr);
  (* \uXXXX escapes decode to UTF-8. *)
  match A.Json.parse {|"é"|} with
  | Ok (A.Json.Str e) -> Alcotest.(check string) "latin e-acute" "\xc3\xa9" e
  | Ok _ | Error _ -> Alcotest.fail "not a string"

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match A.Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Ledger-vs-live conformance                                          *)
(* ------------------------------------------------------------------ *)

let float_bits_equal a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let float_opt_bits_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> float_bits_equal a b
  | _ -> false

let belief_equal (a : Search_algorithm.belief option) b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    float_opt_bits_equal a.Search_algorithm.crash_probability b.Search_algorithm.crash_probability
    && float_opt_bits_equal a.Search_algorithm.predicted_value b.Search_algorithm.predicted_value
    && float_opt_bits_equal a.Search_algorithm.predicted_uncertainty
         b.Search_algorithm.predicted_uncertainty
    && String.equal a.Search_algorithm.belief_source b.Search_algorithm.belief_source
  | _ -> false

let row_equal (a : A.Series.row) (b : A.Series.row) =
  a.index = b.index
  && a.tokens = b.tokens
  && float_opt_bits_equal a.value b.value
  && a.failure = b.failure
  && float_bits_equal a.at_seconds b.at_seconds
  && float_bits_equal a.eval_seconds b.eval_seconds
  && a.built = b.built
  && float_bits_equal a.decide_seconds b.decide_seconds
  && belief_equal a.belief b.belief

(* Run one search, recording a ledger file and the in-memory beliefs; the
   series rebuilt from the ledger must match the live one row-for-row
   (bit-exact floats) and render identical analyze reports and CSVs. *)
(* A sealed ledger of what [f] records, closed even when [f] raises. *)
let with_writer ~seed ~algo ~space ~metric path f =
  let w = A.Ledger.create_writer ~seed ~algo ~space ~metric path in
  Fun.protect ~finally:(fun () -> A.Ledger.close_writer w) (fun () -> f w)

let check_ledger_matches_live ~algo ~workers ~seed ~fault_rate =
  let path = Filename.temp_file "wayfinder" ".ledger" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let space = Conformance.space () in
      let beliefs = Hashtbl.create 32 in
      let outcome =
        with_writer ~seed ~algo ~space ~metric:Metric.throughput path
          (fun w ->
            Conformance.run ~workers ~seed ~fault_rate
              ~budget:(Driver.Iterations 14)
              ~on_record:(fun entry belief ->
                Hashtbl.replace beliefs entry.History.index belief;
                A.Ledger.record w entry belief)
              algo)
      in
      let live =
        A.Series.of_history
          ~beliefs:(fun i -> Option.join (Hashtbl.find_opt beliefs i))
          ~space outcome.Conformance.result.Driver.history
      in
      let ledger =
        match A.Ledger.load path with
        | Ok l -> l
        | Error e -> Alcotest.fail (A.Ledger.error_to_string e)
      in
      let from_file = A.Series.of_ledger ledger in
      if ledger.A.Ledger.meta.A.Ledger.algo <> algo then
        Alcotest.fail "meta algo mismatch";
      if ledger.A.Ledger.meta.A.Ledger.seed <> Some seed then
        Alcotest.fail "meta seed mismatch";
      if Array.length live.A.Series.rows <> Array.length from_file.A.Series.rows then
        Alcotest.fail "row count mismatch";
      Array.iteri
        (fun i r ->
          if not (row_equal r from_file.A.Series.rows.(i)) then
            Alcotest.fail (Printf.sprintf "row %d differs (%s, workers %d)" i algo workers))
        live.A.Series.rows;
      (* The whole derived layer byte-matches, not just the rows. *)
      let render s =
        ( A.Json.to_string (A.Analyze.to_json (A.Analyze.of_series ~label:"t" ~algo s)),
          A.Analyze.series_csv s )
      in
      render live = render from_file)

let prop_ledger_equals_live =
  QCheck2.Test.make
    ~name:"ledger-loaded series byte-match live series (random/grid/deeptune x workers 1,4)"
    ~count:4
    QCheck2.Gen.(pair (int_range 0 300) (float_range 0. 0.2))
    (fun (seed, fault_rate) ->
      List.for_all
        (fun algo ->
          List.for_all
            (fun workers -> check_ledger_matches_live ~algo ~workers ~seed ~fault_rate)
            [ 1; 4 ])
        [ "random"; "grid"; "deeptune" ])

(* ~on_record must not perturb the search: the belief hook is pure and
   fires outside the RNG's draw sequence. *)
let prop_recording_is_invisible =
  QCheck2.Test.make ~name:"a recorded run is byte-identical to an unrecorded one" ~count:6
    QCheck2.Gen.(int_range 0 300)
    (fun seed ->
      List.for_all
        (fun algo ->
          let plain = Conformance.run ~workers:2 ~seed algo in
          let recorded =
            Conformance.run ~workers:2 ~seed ~on_record:(fun _ _ -> ()) algo
          in
          compare
            (History.entries plain.Conformance.result.Driver.history)
            (History.entries recorded.Conformance.result.Driver.history)
          = 0)
        [ "random"; "deeptune"; "bayes" ])

let test_ledger_rejects_unknown_schema () =
  (match A.Ledger.of_lines [ {|{"wayfinder_schema":999,"kind":"ledger"}|} ] with
  | Error (A.Ledger.Unsupported_schema 999) -> ()
  | Error e -> Alcotest.fail (A.Ledger.error_to_string e)
  | Ok _ -> Alcotest.fail "schema 999 accepted");
  (match A.Ledger.of_lines [ "not json at all" ] with
  | Error A.Ledger.Missing_header -> ()
  | Error e -> Alcotest.fail (A.Ledger.error_to_string e)
  | Ok _ -> Alcotest.fail "garbage accepted");
  (match A.Ledger.of_lines [] with
  | Error A.Ledger.Missing_header -> ()
  | _ -> Alcotest.fail "empty file accepted");
  (* A trace file is versioned but is not a ledger. *)
  match A.Ledger.of_lines [ {|{"wayfinder_schema":1,"kind":"trace"}|} ] with
  | Error (A.Ledger.Malformed _) -> ()
  | Error e -> Alcotest.fail (A.Ledger.error_to_string e)
  | Ok _ -> Alcotest.fail "trace header accepted as ledger"

(* Reopening a sealed ledger with all of its entries drops the seal and
   appends from there, so closing it again reproduces the file byte for
   byte (the seal's crc resumes over the kept bytes).  Every refusal is an
   error that leaves the file as it was. *)
let test_ledger_reopen () =
  let space = Conformance.space () and metric = Metric.throughput and seed = 3 in
  let path = Filename.temp_file "wayfinder" ".ledger" in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let outcome =
        with_writer ~seed ~algo:"random" ~space ~metric path (fun w ->
            Conformance.run ~workers:1 ~seed ~budget:(Driver.Iterations 8)
              ~on_record:(A.Ledger.record w) "random")
      in
      let entries = Array.to_list (History.entries outcome.Conformance.result.Driver.history) in
      let bytes = read () in
      let reopen ?(algo = "random") ?(path = path) entries =
        A.Ledger.reopen_writer ~seed ~algo ~space ~metric ~entries path
      in
      (match reopen entries with
      | Error e -> Alcotest.fail (A.Ledger.error_to_string e)
      | Ok w -> A.Ledger.close_writer w);
      Alcotest.(check string) "reopened and closed: the same bytes" bytes (read ());
      let rejected name result =
        (match result with
        | Ok _ -> Alcotest.failf "%s: reopened" name
        | Error (_ : A.Ledger.error) -> ());
        Alcotest.(check string) (name ^ ": bytes untouched") bytes (read ())
      in
      let missing = path ^ ".missing" in
      rejected "missing file" (reopen ~path:missing entries);
      Alcotest.(check bool) "missing file not created" false (Sys.file_exists missing);
      rejected "too few rows" (reopen (entries @ [ List.hd entries ]));
      rejected "head mismatch" (reopen ~algo:"grid" entries);
      rejected "row mismatch"
        (reopen
           (List.mapi
              (fun i (e : History.entry) ->
                if i = 3 then { e with History.at_seconds = e.History.at_seconds +. 1. } else e)
              entries)))

(* ------------------------------------------------------------------ *)
(* Synthetic series helpers                                            *)
(* ------------------------------------------------------------------ *)

let belief ?crash ?value ?sigma () =
  { Search_algorithm.crash_probability = crash;
    predicted_value = value;
    predicted_uncertainty = sigma;
    belief_source = "test" }

let row ?value ?failure ?belief ~at index =
  { A.Series.index;
    tokens = [||];
    value;
    failure;
    at_seconds = at;
    eval_seconds = 1.;
    built = true;
    decide_seconds = 0.;
    belief;
    objectives = None }

let series ?(metric = Metric.throughput) rows =
  { A.Series.metric; names = [||]; stages = [||]; rows = Array.of_list rows; objectives = [||] }

(* The direct row writer gives, byte for byte, the line the row's Json
   tree renders to: every failure kind, beliefs with absent fields,
   objective vectors, and the edge floats above in every numeric field. *)
let gen_row =
  let open QCheck2.Gen in
  let token =
    oneof
      [ oneofl [ "y"; "n"; "m"; "42"; "-7"; "0x1p-3"; "" ];
        string_size ~gen:(oneofl [ 'a'; '"'; '\\'; '\n'; '\t'; '\001'; ','; '%'; '\xc3' ])
          (int_range 0 6) ]
  in
  let failure =
    oneof [ oneofl Failure.all_named; map (fun s -> Failure.Other s) (string_size (int_range 0 8)) ]
  in
  let belief =
    map
      (fun (((crash_probability, predicted_value), predicted_uncertainty), belief_source) ->
        { Search_algorithm.crash_probability; predicted_value; predicted_uncertainty;
          belief_source })
      (pair
         (pair (pair (opt gen_edge_float) (opt gen_edge_float)) (opt gen_edge_float))
         (oneofl [ "deeptune"; "gp"; "a \"quoted\" source" ]))
  in
  map
    (fun ((((index, tokens), (value, failure)), (at_seconds, eval_seconds, decide_seconds)),
          ((built, belief), objectives)) ->
      { A.Ledger.index; tokens = Array.of_list tokens; value; failure; at_seconds; eval_seconds;
        built; decide_seconds; belief; objectives = Option.map Array.of_list objectives })
    (pair
       (pair
          (pair (pair (int_range 0 1_000_000) (list_size (int_range 0 8) token))
             (pair (opt gen_edge_float) (opt failure)))
          (triple gen_edge_float gen_edge_float gen_edge_float))
       (pair (pair bool (opt belief)) (opt (list_size (int_range 0 4) gen_edge_float))))

let prop_row_line_matches_tree =
  QCheck2.Test.make ~count:1000 ~name:"row_line equals the row's Json tree" gen_row (fun r ->
      A.Ledger.row_line r = A.Json.to_string (Oracle.Ledger_row.row_json r))

(* ------------------------------------------------------------------ *)
(* Calibration                                                         *)
(* ------------------------------------------------------------------ *)

let test_calibration_empty_and_single () =
  let empty = A.Calibration.of_series (series []) in
  Alcotest.(check (option (float 1e-12))) "no brier" None empty.A.Calibration.brier;
  Alcotest.(check (option (float 1e-12))) "no mae" None empty.A.Calibration.mae;
  Alcotest.(check (option (float 1e-12))) "no spearman" None
    empty.A.Calibration.uncertainty_spearman;
  Alcotest.(check int) "no bins" 0 (Array.length empty.A.Calibration.reliability);
  (* One labelled pair: Brier defined, Spearman still undefined. *)
  let one =
    A.Calibration.of_series
      (series [ row ~value:10. ~belief:(belief ~crash:0.25 ~value:10. ~sigma:1. ()) ~at:1. 0 ])
  in
  Alcotest.(check int) "one crash pair" 1 one.A.Calibration.crash_pairs;
  Alcotest.(check (option (float 1e-12))) "brier of one" (Some 0.0625) one.A.Calibration.brier;
  Alcotest.(check (option (float 1e-12))) "mae of exact prediction" (Some 0.)
    one.A.Calibration.mae;
  Alcotest.(check (option (float 1e-12))) "spearman needs two" None
    one.A.Calibration.uncertainty_spearman

let test_calibration_all_crash_and_no_crash () =
  let all_crash =
    series
      (List.init 5 (fun i ->
           row ~failure:Failure.Runtime_crash ~belief:(belief ~crash:1. ()) ~at:(float_of_int i) i))
  in
  let c = A.Calibration.of_series all_crash in
  Alcotest.(check (option (float 1e-12))) "perfect pessimist" (Some 0.) c.A.Calibration.brier;
  Alcotest.(check int) "no value pairs on failures" 0 c.A.Calibration.value_pairs;
  let no_crash =
    series
      (List.init 5 (fun i ->
           row ~value:1. ~belief:(belief ~crash:1. ()) ~at:(float_of_int i) i))
  in
  let c = A.Calibration.of_series no_crash in
  Alcotest.(check (option (float 1e-12))) "maximally wrong" (Some 1.) c.A.Calibration.brier

let test_calibration_label_policy () =
  (* Never-evaluated and testbed-caused outcomes carry no crash label. *)
  let s =
    series
      [ row ~failure:Failure.Invalid_configuration ~belief:(belief ~crash:0.5 ()) ~at:0. 0;
        row ~failure:Failure.Quarantined ~belief:(belief ~crash:0.5 ()) ~at:1. 1;
        row ~failure:Failure.Spurious_failure ~belief:(belief ~crash:0.5 ()) ~at:2. 2;
        row ~failure:Failure.Run_timeout ~belief:(belief ~crash:0.5 ()) ~at:3. 3;
        row ~failure:Failure.Build_failure ~belief:(belief ~crash:0.9 ()) ~at:4. 4;
        row ~value:5. ~belief:(belief ~crash:0.1 ()) ~at:5. 5;
        (* No belief: nothing to score. *)
        row ~value:6. ~at:6. 6 ]
  in
  Alcotest.(check (list (pair (float 1e-12) bool)))
    "only the deterministic failure and the success are labelled"
    [ (0.9, true); (0.1, false) ]
    (A.Calibration.crash_pairs s)

let test_reliability_bins_clamp () =
  let pairs = [ (-0.5, false); (0.05, false); (0.95, true); (1.5, true) ] in
  let bins = A.Calibration.reliability ~bins:10 pairs in
  Alcotest.(check int) "ten bins" 10 (Array.length bins);
  Alcotest.(check int) "out-of-range low clamps into bin 0" 2 bins.(0).A.Calibration.count;
  Alcotest.(check int) "out-of-range high clamps into last bin" 2 bins.(9).A.Calibration.count;
  Alcotest.(check (float 1e-12)) "observed rate in last bin" 1. bins.(9).A.Calibration.observed_rate;
  Alcotest.(check bool) "empty bin renders NaN" true
    (Float.is_nan bins.(5).A.Calibration.mean_predicted);
  Alcotest.(check bool) "bins=0 rejected" true
    (try
       ignore (A.Calibration.reliability ~bins:0 pairs);
       false
     with Invalid_argument _ -> true)

let test_spearman_monotone () =
  let up = [ (1., 10.); (2., 20.); (3., 30.) ] in
  let down = [ (1., 30.); (2., 20.); (3., 10.) ] in
  Alcotest.(check (option (float 1e-9))) "monotone" (Some 1.)
    (A.Calibration.uncertainty_spearman up);
  Alcotest.(check (option (float 1e-9))) "anti-monotone" (Some (-1.))
    (A.Calibration.uncertainty_spearman down);
  Alcotest.(check (option (float 1e-9))) "single pair undefined" None
    (A.Calibration.uncertainty_spearman [ (1., 1.) ])

(* ------------------------------------------------------------------ *)
(* Series & Analyze on synthetic data                                  *)
(* ------------------------------------------------------------------ *)

let test_series_convergence () =
  let s =
    series
      [ row ~failure:Failure.Boot_failure ~at:10. 0;
        row ~value:5. ~at:20. 1;
        row ~value:9.9 ~at:30. 2;
        row ~value:10. ~at:40. 3;
        row ~value:7. ~at:50. 4 ]
  in
  Alcotest.(check (option (pair int (float 1e-12)))) "best" (Some (3, 10.)) (A.Series.best s);
  Alcotest.(check bool) "best-so-far starts NaN" true
    (Float.is_nan (A.Series.best_so_far s).(0));
  Alcotest.(check (float 1e-12)) "best-so-far tracks" 9.9 (A.Series.best_so_far s).(2);
  (* 9.9 is within 1% of 10, so epsilon=0.01 is reached at sample 3. *)
  Alcotest.(check (option int)) "samples to within 1%" (Some 3)
    (A.Series.samples_to_within s ~epsilon:0.01);
  Alcotest.(check (option (float 1e-12))) "virtual time to within 1%" (Some 30.)
    (A.Series.virtual_seconds_to_within s ~epsilon:0.01);
  Alcotest.(check (option int)) "samples to exact best" (Some 4) (A.Series.samples_to_best s);
  Alcotest.(check (float 1e-12)) "crash rate counts deterministic only" 0.2
    (A.Series.stats s).A.Running.crash_rate;
  let report = A.Analyze.of_series ~label:"synthetic" s in
  Alcotest.(check (float 1e-12)) "final regret is zero" 0. report.A.Analyze.final_regret;
  let csv = A.Analyze.series_csv s in
  (match String.split_on_char '\n' csv with
  | header :: _ ->
    Alcotest.(check string) "csv header"
      "iteration,value,best_so_far,simple_regret,crash_rate_w25,transient_rate_w25,at_s" header
  | [] -> Alcotest.fail "empty csv");
  Alcotest.(check int) "one csv line per row (+header, trailing)" 7
    (List.length (String.split_on_char '\n' csv))

let test_series_csv_roundtrip () =
  (* A History.to_csv export parses back into the same outcome series. *)
  let h = History.create Metric.throughput in
  let entry ?value ?failure index at =
    { History.index;
      config = [| Param.Vint 1 |];
      value;
      failure;
      at_seconds = at;
      eval_seconds = 1.;
      built = true;
      decide_seconds = 0.25; objectives = None }
  in
  History.add h (entry ~value:10. 0 10.);
  History.add h (entry ~failure:(Failure.Other "panic, with commas \"quoted\"") 1 20.);
  History.add h (entry ~value:12.5 2 30.);
  match A.Series.of_csv ~metric:Metric.throughput (History.to_csv h) with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check int) "rows" 3 (A.Series.length s);
    Alcotest.(check (option (pair int (float 1e-12)))) "best" (Some (2, 12.5))
      (A.Series.best s);
    Alcotest.(check bool) "failure row survives quoting" true
      (s.A.Series.rows.(1).A.Series.failure <> None);
    Alcotest.(check (float 1e-12)) "at_s parsed" 20. s.A.Series.rows.(1).A.Series.at_seconds

(* ------------------------------------------------------------------ *)
(* Compare                                                             *)
(* ------------------------------------------------------------------ *)

let monotone_series ~n ~step =
  series (List.init n (fun i -> row ~value:(step *. float_of_int (i + 1)) ~at:(float_of_int i) i))

let test_compare_winner_ordering () =
  let fast = monotone_series ~n:30 ~step:10. in
  let slow = monotone_series ~n:30 ~step:1. in
  match A.Compare.make [ ("slow", slow); ("fast", fast) ] with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check (array int)) "budgets clip to shortest run" [| 5; 10; 25; 30 |]
      t.A.Compare.budgets;
    Array.iter
      (fun w -> Alcotest.(check (option int)) "fast wins every budget" (Some 1) w)
      t.A.Compare.winners;
    Alcotest.(check (float 1e-12)) "best-so-far at budget 5" 50. t.A.Compare.best_at.(1).(0);
    (match t.A.Compare.finals.(1) with
    | Some (samples, best) ->
      Alcotest.(check int) "samples to best" 30 samples;
      Alcotest.(check (float 1e-12)) "final best" 300. best
    | None -> Alcotest.fail "fast run has no final")

let test_compare_rejects_mismatched_metrics () =
  let a = monotone_series ~n:10 ~step:1. in
  let latency = Metric.make ~maximize:false ~name:"latency" ~unit_name:"ms" () in
  let b = { (monotone_series ~n:10 ~step:1.) with A.Series.metric = latency } in
  (match A.Compare.make [ ("a", a); ("b", b) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mismatched metrics accepted");
  match A.Compare.make [ ("empty", series []) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty run accepted"

let test_compare_no_success_column () =
  let crashes =
    series (List.init 10 (fun i -> row ~failure:Failure.Runtime_crash ~at:(float_of_int i) i))
  in
  let ok = monotone_series ~n:10 ~step:1. in
  match A.Compare.make ~budgets:[ 5; 10 ] [ ("crashes", crashes); ("ok", ok) ] with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check bool) "no-success run shows NaN" true
      (Float.is_nan t.A.Compare.best_at.(0).(0));
    Alcotest.(check (option int)) "other run still wins" (Some 1) t.A.Compare.winners.(0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analytics"
    [ ( "json",
        [ QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
          Alcotest.test_case "special values" `Quick test_json_special_values;
          Alcotest.test_case "integer boundary" `Quick test_json_integer_boundary;
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors ] );
      ( "ledger",
        [ QCheck_alcotest.to_alcotest prop_ledger_equals_live;
          QCheck_alcotest.to_alcotest prop_recording_is_invisible;
          Alcotest.test_case "schema rejection" `Quick test_ledger_rejects_unknown_schema;
          Alcotest.test_case "reopen for a resume" `Quick test_ledger_reopen;
          QCheck_alcotest.to_alcotest prop_row_line_matches_tree ] );
      ( "calibration",
        [ Alcotest.test_case "empty and single" `Quick test_calibration_empty_and_single;
          Alcotest.test_case "all-crash / no-crash" `Quick
            test_calibration_all_crash_and_no_crash;
          Alcotest.test_case "label policy" `Quick test_calibration_label_policy;
          Alcotest.test_case "reliability clamping" `Quick test_reliability_bins_clamp;
          Alcotest.test_case "spearman" `Quick test_spearman_monotone ] );
      ( "series",
        [ Alcotest.test_case "convergence diagnostics" `Quick test_series_convergence;
          Alcotest.test_case "csv round-trip" `Quick test_series_csv_roundtrip ] );
      ( "compare",
        [ Alcotest.test_case "winner ordering" `Quick test_compare_winner_ordering;
          Alcotest.test_case "metric mismatch" `Quick test_compare_rejects_mismatched_metrics;
          Alcotest.test_case "no-success column" `Quick test_compare_no_success_column ] )
    ]
