open Wayfinder_obs

(* ------------------------------------------------------------------ *)
(* Attrs                                                               *)
(* ------------------------------------------------------------------ *)

let test_attr_json () =
  let attrs =
    [ Attr.string "name" "a \"quoted\"\nvalue";
      Attr.int "pool" 96;
      Attr.bool "built" true;
      Attr.float "dt" 1.5 ]
  in
  Alcotest.(check string)
    "escapes and types"
    {|{"name":"a \"quoted\"\nvalue","pool":96,"built":true,"dt":1.5}|}
    (Attr.to_json attrs)

let test_attr_nonfinite_floats () =
  Alcotest.(check string) "nan is null" "null" (Attr.json_of_value (Attr.Float nan));
  Alcotest.(check string) "inf is null" "null"
    (Attr.json_of_value (Attr.Float infinity));
  Alcotest.(check string) "integral floats stay short" "60"
    (Attr.json_of_value (Attr.Float 60.))

(* The buffer writers spell integers as [string_of_int] and floats as
   the printf formats they replace: "%.0f" for integer values below
   1e16, "%.17g" for the rest. *)
let number_writer_prop =
  QCheck2.Test.make ~count:2000 ~name:"int and number writers match printf"
    QCheck2.Gen.(
      pair
        (oneof [ int; oneofl [ 0; -1; 9; 10; -10; max_int; min_int ] ])
        (oneof
           [ float;
             map float_of_int (int_range (-100_000) 100_000);
             map (fun d -> 1e16 +. float_of_int d) (int_range (-50) 50);
             oneofl [ 0.; -0.; 5e-324; 1e15; 1e16; -1e16; 0.1 ] ]))
    (fun (i, v) ->
      let int_ok =
        let buf = Buffer.create 24 in
        Attr.add_int buf i;
        Buffer.contents buf = string_of_int i
      in
      let printf =
        if Float.is_integer v && Float.abs v < 1e16 then Printf.sprintf "%.0f" v
        else Printf.sprintf "%.17g" v
      in
      int_ok && ((not (Float.is_finite v)) || Attr.number v = printf))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr m ~by:2.5 "a";
  Metrics.incr m "b";
  let s = Metrics.snapshot m in
  Alcotest.(check (float 1e-9)) "accumulates" 3.5 (Metrics.counter s "a");
  Alcotest.(check (float 1e-9)) "independent" 1. (Metrics.counter s "b");
  Alcotest.(check (float 1e-9)) "absent is 0" 0. (Metrics.counter s "c");
  Alcotest.(check (list string)) "sorted by name" [ "a"; "b" ]
    (List.map fst s.Metrics.counters)

let test_metrics_histogram () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m "h") [ 1.0; 2.0; 4.0; 8.0 ];
  let s = Metrics.snapshot m in
  (match Metrics.histogram s "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count" 4 h.Metrics.count;
    Alcotest.(check (float 1e-9)) "sum" 15. h.Metrics.sum;
    Alcotest.(check (float 1e-9)) "min" 1. h.Metrics.min;
    Alcotest.(check (float 1e-9)) "max" 8. h.Metrics.max;
    Alcotest.(check (float 1e-9)) "mean" 3.75 (Metrics.mean h);
    (* Quantiles are bucket upper bounds clamped to [min, max]. *)
    Alcotest.(check bool) "p0 at min" true (Metrics.quantile h 0. >= 1.);
    Alcotest.(check (float 1e-9)) "p100 clamps to max" 8. (Metrics.quantile h 1.));
  Alcotest.(check (float 1e-9)) "sum helper" 15. (Metrics.sum s "h");
  Alcotest.(check (float 1e-9)) "sum of absent is 0" 0. (Metrics.sum s "nope")

let test_metrics_bucket_edges () =
  (* A sample exactly on a power of two lands in the bucket it bounds
     (bounds are inclusive). *)
  for e = Metrics.min_exp + 1 to Metrics.max_exp do
    let v = Float.pow 2. (float_of_int e) in
    Alcotest.(check (float 0.))
      (Printf.sprintf "2^%d on its own bound" e)
      v
      (Metrics.bucket_bound (Metrics.bucket_index v))
  done;
  let tiny = Float.pow 2. (float_of_int Metrics.min_exp) in
  Alcotest.(check int) "at 2^min_exp -> bucket 0" 0 (Metrics.bucket_index tiny);
  Alcotest.(check int) "below 2^min_exp -> bucket 0" 0 (Metrics.bucket_index (tiny /. 4.));
  Alcotest.(check int) "zero -> bucket 0" 0 (Metrics.bucket_index 0.);
  Alcotest.(check int) "negative -> bucket 0" 0 (Metrics.bucket_index (-3.));
  Alcotest.(check int) "nan -> bucket 0" 0 (Metrics.bucket_index Float.nan);
  let huge = Float.pow 2. (float_of_int Metrics.max_exp) *. 4. in
  Alcotest.(check int) "above 2^max_exp -> last bucket" (Metrics.n_buckets - 1)
    (Metrics.bucket_index huge);
  Alcotest.(check (float 0.)) "last bound is +inf" infinity
    (Metrics.bucket_bound (Metrics.n_buckets - 1))

let test_metrics_nan_does_not_poison () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m "h") [ 1.0; Float.nan; 4.0 ];
  match Metrics.histogram (Metrics.snapshot m) "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "nan still counted" 3 h.Metrics.count;
    Alcotest.(check (float 0.)) "min unpoisoned" 1. h.Metrics.min;
    Alcotest.(check (float 0.)) "max unpoisoned" 4. h.Metrics.max;
    (* The NaN sits in bucket 0 with the other non-positives. *)
    let b0 =
      Array.fold_left
        (fun acc (bound, c) -> if bound <= Float.pow 2. (float Metrics.min_exp) then acc + c else acc)
        0 h.Metrics.buckets
    in
    Alcotest.(check int) "nan in bucket 0" 1 b0

(* Interpolated quantiles stay within one power-of-two bucket of the
   exact order statistic: for positive in-range samples that is a factor
   of 2 either way. *)
let quantile_error_bound_prop =
  QCheck2.Test.make ~count:200 ~name:"quantile within a bucket of exact"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 60) (float_range 1e-3 1e5))
        (float_range 0. 1.))
    (fun (samples, q) ->
      let m = Metrics.create () in
      List.iter (Metrics.observe m "h") samples;
      match Metrics.histogram (Metrics.snapshot m) "h" with
      | None -> false
      | Some h ->
        let sorted = List.sort compare samples in
        let n = List.length sorted in
        let k =
          Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int n)))
        in
        let exact = List.nth sorted (k - 1) in
        let est = Metrics.quantile h q in
        est >= (exact /. 2.) -. 1e-9 && est <= (exact *. 2.) +. 1e-9)

let test_metrics_snapshot_is_immutable () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  let s = Metrics.snapshot m in
  Metrics.incr m ~by:10. "a";
  Alcotest.(check (float 1e-9)) "snapshot frozen" 1. (Metrics.counter s "a");
  Alcotest.(check (float 1e-9)) "registry kept counting" 11.
    (Metrics.counter (Metrics.snapshot m) "a")

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let test_memory_ring_drops_oldest () =
  let store = Sink.Memory.create ~capacity:3 () in
  let sink = Sink.Memory.sink store in
  for i = 1 to 5 do
    Sink.emit sink
      (Event.Count
         { name = Printf.sprintf "c%d" i;
           delta = 1.;
           at = { Event.wall_s = 0.; virtual_s = 0. } })
  done;
  Alcotest.(check int) "length bounded" 3 (Sink.Memory.length store);
  Alcotest.(check int) "dropped counted" 2 (Sink.Memory.dropped store);
  Alcotest.(check (list string)) "oldest retained first" [ "c3"; "c4"; "c5" ]
    (List.map Event.name (Sink.Memory.events store));
  Sink.Memory.clear store;
  Alcotest.(check int) "clear empties" 0 (Sink.Memory.length store)

let test_memory_rejects_bad_capacity () =
  Alcotest.(check bool) "capacity 0 rejected" true
    (try
       ignore (Sink.Memory.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true)

let test_jsonl_sink_format () =
  let buf = Buffer.create 256 in
  let sink = Sink.jsonl (Buffer.add_string buf) in
  Sink.emit sink
    (Event.Span
       { name = "driver.build";
         attrs = [ Attr.bool "built" true ];
         began = { Event.wall_s = 0.5; virtual_s = 10. };
         wall_duration_s = 0.;
         virtual_duration_s = 112.5 });
  Sink.emit sink
    (Event.Sample
       { name = "loss"; value = 0.25; at = { Event.wall_s = 1.; virtual_s = 0. } });
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  Alcotest.(check int) "schema header, one line per event, trailing" 4 (List.length lines);
  Alcotest.(check string) "schema header line"
    (Sink.schema_header ~kind:"trace")
    (List.nth lines 0);
  let first = List.nth lines 1 in
  Alcotest.(check bool) "span line carries type" true
    (String.length first > 0
    && String.sub first 0 15 = {|{"type":"span",|});
  Alcotest.(check bool) "span line carries attrs" true
    (let needle = {|"attrs":{"built":true}|} in
     let n = String.length needle in
     let rec scan i =
       i + n <= String.length first
       && (String.sub first i n = needle || scan (i + 1))
     in
     scan 0)

(* The write-callback JSONL sink must surface a real flush: a buffered
   owner that is never flushed loses the tail on crash.  Emit through a
   buffered out_channel and check the event is on disk only after
   Sink.flush. *)
let test_jsonl_sink_flush_visibility () =
  let path = Filename.temp_file "wayfinder_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      let sink = Sink.jsonl ~flush:(fun () -> flush oc) (output_string oc) in
      Sink.emit sink
        (Event.Count { name = "c"; delta = 1.; at = { Event.wall_s = 0.; virtual_s = 0. } });
      Sink.flush sink;
      let on_disk = In_channel.with_open_text path In_channel.input_all in
      close_out oc;
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' on_disk)
      in
      Alcotest.(check int) "header and event visible after flush" 2 (List.length lines);
      Alcotest.(check string) "header first" (Sink.schema_header ~kind:"trace")
        (List.nth lines 0))

(* A recorder fans each event out to its sinks, in list order. *)
let test_tee_forwards_in_order () =
  let seen = ref [] in
  let make tag = Sink.make ~emit:(fun e -> seen := (tag, Event.name e) :: !seen) () in
  let r = Recorder.create ~now:(fun () -> 0.) ~sinks:[ make "a"; make "b" ] () in
  Recorder.incr r "x";
  Alcotest.(check (list (pair string string)))
    "both sinks, in order"
    [ ("a", "x"); ("b", "x") ]
    (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Recorder                                                            *)
(* ------------------------------------------------------------------ *)

(* A recorder with hand-cranked clocks so durations are deterministic. *)
let manual_recorder ?sinks () =
  let wall = ref 0. and virt = ref 0. in
  let r = Recorder.create ~now:(fun () -> !wall) ~virtual_now:(fun () -> !virt) ?sinks () in
  (r, wall, virt)

let test_recorder_span_histograms () =
  let r, wall, virt = manual_recorder () in
  let sp = Recorder.span_begin r "phase" in
  wall := 2.;
  virt := 60.;
  Recorder.span_end r sp;
  let s = Recorder.snapshot r in
  Alcotest.(check (float 1e-9)) "wall histogram fed" 2. (Metrics.sum s "phase.wall_s");
  Alcotest.(check (float 1e-9)) "virtual histogram fed" 60.
    (Metrics.sum s "phase.virtual_s")

let test_recorder_span_without_virtual_advance () =
  let r, wall, _ = manual_recorder () in
  Recorder.with_span r "p" (fun () -> wall := 1.);
  let s = Recorder.snapshot r in
  Alcotest.(check bool) "no virtual histogram when clock idle" true
    (Metrics.histogram s "p.virtual_s" = None);
  Alcotest.(check (float 1e-9)) "wall recorded" 1. (Metrics.sum s "p.wall_s")

let test_recorder_with_span_propagates_error () =
  let store = Sink.Memory.create () in
  let r, _, _ = manual_recorder ~sinks:[ Sink.Memory.sink store ] () in
  Alcotest.(check bool) "exception re-raised" true
    (try
       let (_ : int) = Recorder.with_span r "boom" (fun () -> failwith "no") in
       false
     with Failure _ -> true);
  (* The span still closed, with an error attribute. *)
  match Sink.Memory.events store with
  | [ Event.Span { name = "boom"; attrs; _ } ] ->
    Alcotest.(check bool) "error attr set" true
      (Attr.find attrs "error" = Some (Attr.Bool true))
  | _ -> Alcotest.fail "expected exactly one span event"

let test_recorder_emit_span_virtual_only () =
  let r, _, _ = manual_recorder () in
  Recorder.emit_span r ~virtual_s:42. "driver.boot";
  let s = Recorder.snapshot r in
  Alcotest.(check (float 1e-9)) "virtual recorded" 42.
    (Metrics.sum s "driver.boot.virtual_s");
  Alcotest.(check bool) "no wall histogram" true
    (Metrics.histogram s "driver.boot.wall_s" = None)

let test_recorder_quiet_skips_events_not_metrics () =
  let store = Sink.Memory.create () in
  let r, _, _ = manual_recorder ~sinks:[ Sink.Memory.sink store ] () in
  Recorder.incr r ~quiet:true "silent";
  Recorder.observe r ~quiet:true "silent_h" 1.;
  Recorder.incr r "loud";
  Alcotest.(check (list string)) "only loud events reach sinks" [ "loud" ]
    (List.map Event.name (Sink.Memory.events store));
  let s = Recorder.snapshot r in
  Alcotest.(check (float 1e-9)) "quiet counter aggregated" 1.
    (Metrics.counter s "silent");
  Alcotest.(check (float 1e-9)) "quiet histogram aggregated" 1.
    (Metrics.sum s "silent_h")

let test_alert_event_json () =
  Alcotest.(check string) "alert json"
    {|{"type":"alert","rule":"crash","message":"windowed crash rate 50% > 10%","wall_s":1.5,"virtual_s":60}|}
    (Event.to_json
       (Event.Alert
          { rule = "crash";
            message = "windowed crash rate 50% > 10%";
            at = { Event.wall_s = 1.5; virtual_s = 60. } }))

(* Wall values on the microsecond grid become short decimals; a value
   off the grid keeps every bit through the exact writer. *)
let test_wall_decimals () =
  List.iter
    (fun (w, expect) ->
      let line =
        Event.to_json (Event.Count { name = "c"; delta = 1.; at = { Event.wall_s = w; virtual_s = 0. } })
      in
      Alcotest.(check string) expect
        (Printf.sprintf {|{"type":"count","name":"c","delta":1,"wall_s":%s,"virtual_s":0}|} expect)
        line)
    [ (0., "0");
      (-0., "-0");
      (12., "12");
      (0.0025, "0.0025");
      (3.000001, "3.000001");
      (1e-6, "0.000001");
      (-0.000005, "-0.000005");
      (123456.789012, "123456.789012");
      (1e-7, "9.9999999999999995e-08");
      (nan, "null") ]

let test_recorder_alert () =
  let store = Sink.Memory.create () in
  let r, _, _ = manual_recorder ~sinks:[ Sink.Memory.sink store ] () in
  Recorder.alert r ~rule:"stall" "no improvement in 30 iterations";
  (match Sink.Memory.events store with
  | [ Event.Alert { rule = "stall"; message; _ } ] ->
    Alcotest.(check string) "message carried" "no improvement in 30 iterations" message
  | _ -> Alcotest.fail "expected exactly one alert event");
  Alcotest.(check (float 1e-9)) "per-rule counter" 1.
    (Metrics.counter (Recorder.snapshot r) "alerts.stall")

let test_recorder_timed () =
  let r, wall, _ = manual_recorder () in
  let x, dt =
    Recorder.timed r "work" (fun () ->
        wall := !wall +. 0.25;
        7)
  in
  Alcotest.(check int) "result passed through" 7 x;
  Alcotest.(check (float 1e-9)) "duration measured" 0.25 dt

(* The returned seconds are the raw difference of the two clock reads
   (they become the ledger's decide_s); only the span's own duration is
   on the microsecond grid. *)
let test_recorder_timed_unrounded () =
  let r, wall, _ = manual_recorder () in
  wall := 0.1234564;
  let (), dt = Recorder.timed r "work" (fun () -> wall := 0.1234571) in
  Alcotest.(check bool) "raw difference, bit for bit" true
    (Int64.equal (Int64.bits_of_float dt) (Int64.bits_of_float (0.1234571 -. 0.1234564)));
  Alcotest.(check (float 0.)) "span duration on the microsecond grid" 1e-6
    (Metrics.sum (Recorder.snapshot r) "work.wall_s")

(* Every event kind, through a recorder on hand-cranked clocks with
   sub-microsecond steps, into the JSONL sink: each line parses; wall
   values are the recorder's microsecond-rounded readings, written with
   at most six decimals and read back exactly; every other float reads
   back bit for bit, or as null when it is not finite. *)
let wall_token line key =
  let key = Printf.sprintf "%s\"%s\":" (if key = "wall_s" then "," else "") key in
  let n = String.length key in
  let rec find i =
    if i + n > String.length line then None
    else if String.sub line i n = key then Some (i + n)
    else find (i + 1)
  in
  Option.map
    (fun start ->
      let stop = ref start in
      while !stop < String.length line && line.[!stop] <> ',' && line.[!stop] <> '}' do
        incr stop
      done;
      String.sub line start (!stop - start))
    (find 0)

let is_short_decimal tok =
  let tok = if tok <> "" && tok.[0] = '-' then String.sub tok 1 (String.length tok - 1) else tok in
  match String.split_on_char '.' tok with
  | [ i ] -> i <> "" && String.for_all (fun c -> c >= '0' && c <= '9') i
  | [ i; f ] ->
    i <> "" && String.length f >= 1 && String.length f <= 6
    && String.for_all (fun c -> c >= '0' && c <= '9') (i ^ f)
  | _ -> false

let gen_float =
  QCheck2.Gen.(
    frequency
      [ (4, float);
        (2, oneofl [ 0.; -0.; nan; infinity; neg_infinity; 5e-324; 0.1; 1e16; 1e15 +. 1. ]);
        (2, map float_of_int (int_range (-100) 100)) ])

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 30)
      (pair
         (pair (int_range 0 5) (oneof [ return 0.; float_range 0. 1e-6; float_range 0. 0.05 ]))
         (pair gen_float (oneofl [ "driver.build"; "a \"quoted\"\nname"; "x"; "\x01\t" ]))))

let trace_lines_prop =
  QCheck2.Test.make ~count:300 ~name:"jsonl lines parse, wall stamps on the microsecond grid"
    gen_ops (fun ops ->
      let module Json = Wayfinder_analytics.Json in
      let buf = Buffer.create 1024 in
      let store = Sink.Memory.create () in
      let r, wall, virt =
        manual_recorder ~sinks:[ Sink.Memory.sink store; Sink.jsonl (Buffer.add_string buf) ] ()
      in
      let grid x = Float.round (x *. 1e6) /. 1e6 in
      (* The wall values each event must carry, in emission order. *)
      let expect = ref [] in
      List.iter
        (fun ((op, step), (v, name)) ->
          virt := v;
          let at = !wall in
          match op with
          | 0 ->
            Recorder.with_span r ~attrs:[ Attr.float "f" v; Attr.string "s" name ] name (fun () ->
                wall := !wall +. step);
            expect :=
              [ grid at; (Float.round (!wall *. 1e6) -. Float.round (at *. 1e6)) /. 1e6 ] :: !expect
          | 1 ->
            Recorder.emit_span r ~virtual_s:v ~wall_s:step name;
            expect := [ grid at; grid step ] :: !expect
          | 2 ->
            Recorder.incr r ~by:v name;
            expect := [ grid at ] :: !expect
          | 3 ->
            Recorder.observe r name v;
            expect := [ grid at ] :: !expect
          | 4 ->
            Recorder.alert r ~rule:name (name ^ " fired");
            expect := [ grid at ] :: !expect
          | _ ->
            wall := !wall +. step)
        ops;
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let exact j key want =
        match Json.member key j with
        | Some (Json.Num got) -> Float.is_finite want && same got want
        | Some Json.Null -> not (Float.is_finite want)
        | _ -> false
      in
      let wall_ok line j key want =
        (match Json.member key j with Some (Json.Num got) -> same got want | _ -> false)
        && match wall_token line key with Some tok -> is_short_decimal tok | None -> false
      in
      let lines = List.tl (String.split_on_char '\n' (Buffer.contents buf)) in
      let lines = List.filter (fun l -> l <> "") lines in
      let events = Sink.Memory.events store in
      List.length lines = List.length events
      && List.length events = List.length !expect
      && List.for_all2
           (fun (line, e) walls ->
             match Json.parse line with
             | Error _ -> false
             | Ok j -> (
               match (e, walls) with
               | Event.Span { attrs; began; wall_duration_s; virtual_duration_s; _ }, [ b; d ] ->
                 same began.Event.wall_s b && same wall_duration_s d
                 && wall_ok line j "began_wall_s" b
                 && wall_ok line j "wall_s" d
                 && exact j "virtual_s" virtual_duration_s
                 && exact j "began_virtual_s" began.Event.virtual_s
                 && List.for_all
                      (fun (k, v) ->
                        match (v, Option.bind (Json.member "attrs" j) (Json.member k)) with
                        | Attr.Float f, Some _ -> exact (Option.get (Json.member "attrs" j)) k f
                        | Attr.String s, Some (Json.Str s') -> s = s'
                        | _ -> false)
                      attrs
               | Event.Count { delta = x; at; _ }, [ w ] | Event.Sample { value = x; at; _ }, [ w ]
                 ->
                 same at.Event.wall_s w && wall_ok line j "wall_s" w
                 && exact j "virtual_s" at.Event.virtual_s
                 && exact j (match e with Event.Count _ -> "delta" | _ -> "value") x
               | Event.Alert { at; message; _ }, [ w ] ->
                 same at.Event.wall_s w && wall_ok line j "wall_s" w
                 && exact j "virtual_s" at.Event.virtual_s
                 && Json.member "message" j = Some (Json.Str message)
               | _ -> false))
           (List.combine lines events) (List.rev !expect))

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

let test_summary_si () =
  List.iter
    (fun (v, expect) -> Alcotest.(check string) (Printf.sprintf "si %g" v) expect (Summary.si v))
    [ (0., "0");
      (5e-4, "500us");
      (0.25, "250.0ms");
      (1.5, "1.50s");
      (59.99, "59.99s");
      (* Minute boundary is exactly 60 s — 90 s must not render as seconds. *)
      (60., "1.0m");
      (90., "1.5m");
      (3600., "60.0m");
      (7200., "2.0h");
      (* Sign applies outside the unit conversion. *)
      (-90., "-1.5m");
      (-0.25, "-250.0ms");
      (nan, "nan");
      (infinity, "inf");
      (neg_infinity, "-inf") ]

let test_summary_phase_line () =
  let m = Metrics.create () in
  Metrics.observe m "driver.build.virtual_s" 75.;
  Metrics.observe m "driver.run.virtual_s" 25.;
  let line =
    Summary.phase_line (Metrics.snapshot m)
      ~phases:[ ("build", "driver.build"); ("boot", "driver.boot"); ("run", "driver.run") ]
      ~suffix:".virtual_s"
  in
  Alcotest.(check bool) "build share" true
    (let contains needle hay =
       let n = String.length needle in
       let rec scan i =
         i + n <= String.length hay && (String.sub hay i n = needle || scan (i + 1))
       in
       scan 0
     in
     contains "build" line && contains "75%" line && contains "25%" line
     && contains "boot" line)

let test_summary_to_text_mentions_everything () =
  let m = Metrics.create () in
  Metrics.incr m ~by:3. "driver.iterations";
  Metrics.observe m "driver.boot.virtual_s" 5.;
  let text = Summary.to_text ~title:"t" (Metrics.snapshot m) in
  let contains needle =
    let n = String.length needle in
    let rec scan i =
      i + n <= String.length text && (String.sub text i n = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "title" true (contains "t");
  Alcotest.(check bool) "counter listed" true (contains "driver.iterations");
  Alcotest.(check bool) "histogram listed" true (contains "driver.boot.virtual_s")

let () =
  Alcotest.run "obs"
    [ ( "attr",
        [ Alcotest.test_case "json rendering" `Quick test_attr_json;
          Alcotest.test_case "non-finite floats" `Quick test_attr_nonfinite_floats;
          QCheck_alcotest.to_alcotest number_writer_prop ] );
      ( "metrics",
        [ Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "bucket edges" `Quick test_metrics_bucket_edges;
          Alcotest.test_case "nan does not poison min/max" `Quick
            test_metrics_nan_does_not_poison;
          QCheck_alcotest.to_alcotest quantile_error_bound_prop;
          Alcotest.test_case "snapshot immutable" `Quick test_metrics_snapshot_is_immutable ] );
      ( "sinks",
        [ Alcotest.test_case "memory ring drops oldest" `Quick test_memory_ring_drops_oldest;
          Alcotest.test_case "memory rejects bad capacity" `Quick
            test_memory_rejects_bad_capacity;
          Alcotest.test_case "jsonl format" `Quick test_jsonl_sink_format;
          Alcotest.test_case "jsonl flush visibility" `Quick test_jsonl_sink_flush_visibility;
          Alcotest.test_case "tee order" `Quick test_tee_forwards_in_order ] );
      ( "recorder",
        [ Alcotest.test_case "span feeds both histograms" `Quick
            test_recorder_span_histograms;
          Alcotest.test_case "no virtual histogram when idle" `Quick
            test_recorder_span_without_virtual_advance;
          Alcotest.test_case "with_span propagates errors" `Quick
            test_recorder_with_span_propagates_error;
          Alcotest.test_case "emit_span virtual only" `Quick
            test_recorder_emit_span_virtual_only;
          Alcotest.test_case "quiet skips events not metrics" `Quick
            test_recorder_quiet_skips_events_not_metrics;
          Alcotest.test_case "alert event json" `Quick test_alert_event_json;
          Alcotest.test_case "wall decimals" `Quick test_wall_decimals;
          Alcotest.test_case "recorder alert" `Quick test_recorder_alert;
          Alcotest.test_case "timed" `Quick test_recorder_timed;
          Alcotest.test_case "timed returns the raw difference" `Quick
            test_recorder_timed_unrounded;
          QCheck_alcotest.to_alcotest trace_lines_prop ] );
      ( "summary",
        [ Alcotest.test_case "si rendering" `Quick test_summary_si;
          Alcotest.test_case "phase line" `Quick test_summary_phase_line;
          Alcotest.test_case "to_text" `Quick test_summary_to_text_mentions_everything ] )
    ]
