(* Model registry: sealed-entry round-trips (bitwise floats, qcheck),
   verified fingerprints (typed mismatch — the filename hash is never
   trusted), the save crash matrix over the deterministic fault backend
   (old or new entry after any crash, never a torn one), corruption
   detection completeness (every single-byte flip caught), donor lookup
   ranking, incumbent projection, and the drift probe's staleness
   policy. *)

open Wayfinder_platform
module A = Wayfinder_analytics
module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Mem = Durable.Mem

let fault_plans = [ (false, false); (false, true); (true, false); (true, true) ]
let bits = Int64.bits_of_float

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let space_a =
  Space.create
    [ Param.bool_param "net.poll" true;
      Param.int_param ~log_scale:true "buf.kb" ~lo:4 ~hi:4096 ~default:64;
      Param.tristate_param ~stage:Param.Compile_time "CONFIG_SMP" 2;
      Param.categorical_param "sched" [| "cfs"; "eevdf"; "rt" |] ~default:0 ]

(* Overlaps [space_a] in "net.poll" (re-defaulted — identity unchanged)
   and "buf.kb"; adds a parameter of its own. *)
let space_b =
  Space.create
    [ Param.bool_param "net.poll" false;
      Param.int_param ~log_scale:true "buf.kb" ~lo:4 ~hi:4096 ~default:128;
      Param.bool_param "extra.flag" false ]

let sample_entry ?(app = "sim-test/app") ?(seed = 11)
    ?(model = [| 1.5; -0.25; 3.75e-3; 0.; 1e30 |]) space =
  let fp = Registry.fingerprint ~app space in
  { Registry.fp;
    meta =
      { Registry.algo = "deeptune";
        seed;
        samples = 42;
        metric_name = "throughput";
        unit_name = "req/s";
        maximize = true;
        objectives = [ "throughput"; "p95" ];
        best_value = Some 12345.678;
        mean_value = 9876.5;
        crash_rate = 0.25;
        ledger = Some "runs/a.ledger.jsonl" };
    model_kind = "dtm";
    model;
    incumbents = [ Space.defaults space ];
    sealed = true }

let entry_equal_strings a b = Registry.to_string a = Registry.to_string b

(* ------------------------------------------------------------------ *)
(* Round-trip                                                          *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let e = sample_entry space_a in
  match Registry.of_string (Registry.to_string e) with
  | Error err -> Alcotest.fail (Registry.error_to_string err)
  | Ok e' ->
    Alcotest.(check bool) "sealed" true e'.Registry.sealed;
    Alcotest.(check string) "app" e.Registry.fp.Registry.app e'.Registry.fp.Registry.app;
    Alcotest.(check string) "space text" e.Registry.fp.Registry.space_text
      e'.Registry.fp.Registry.space_text;
    Alcotest.(check string) "key" e.Registry.fp.Registry.key e'.Registry.fp.Registry.key;
    Alcotest.(check bool) "meta" true (e'.Registry.meta = e.Registry.meta);
    Alcotest.(check string) "model kind" e.Registry.model_kind e'.Registry.model_kind;
    Alcotest.(check bool) "model floats bitwise" true
      (Array.length e'.Registry.model = Array.length e.Registry.model
      && Array.for_all2 (fun a b -> bits a = bits b) e'.Registry.model e.Registry.model);
    Alcotest.(check bool) "incumbents" true
      (e'.Registry.incumbents = e.Registry.incumbents);
    Alcotest.(check string) "render is a fixpoint" (Registry.to_string e)
      (Registry.to_string e')

let prop_roundtrip_bitwise =
  QCheck2.Test.make ~name:"random entries round-trip bitwise" ~count:100
    QCheck2.Gen.(pair (list float) (pair small_nat small_nat))
    (fun (floats, (seed, samples)) ->
      (* NaN payloads do not survive text (the value does); everything
         else — subnormals, negative zero, infinities — must. *)
      let model =
        Array.of_list (List.map (fun f -> if Float.is_nan f then 0.125 else f) floats)
      in
      let e = sample_entry ~seed ~model space_a in
      let e = { e with Registry.meta = { e.Registry.meta with Registry.samples } } in
      match Registry.of_string (Registry.to_string e) with
      | Error _ -> false
      | Ok e' ->
        e'.Registry.sealed
        && Array.length e'.Registry.model = Array.length model
        && Array.for_all2 (fun a b -> bits a = bits b) e'.Registry.model model
        && Registry.to_string e' = Registry.to_string e)

let test_unsealed_loads () =
  let e = sample_entry space_a in
  let s = Registry.to_string e in
  (* Drop the crc trailer line — the torn-tail shape fsck reports as
     Unsealed. *)
  let no_trailer =
    let lines = String.split_on_char '\n' s in
    let body = List.filteri (fun i l -> ignore i; not (String.length l >= 4 && String.sub l 0 4 = "crc ")) lines in
    String.concat "\n" body
  in
  match Registry.of_string no_trailer with
  | Error err -> Alcotest.fail (Registry.error_to_string err)
  | Ok e' ->
    Alcotest.(check bool) "unsealed" false e'.Registry.sealed;
    Alcotest.(check bool) "content intact" true
      (Array.for_all2 (fun a b -> bits a = bits b) e'.Registry.model e.Registry.model)

(* ------------------------------------------------------------------ *)
(* Fingerprint verification                                            *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_mismatch_is_typed () =
  let fs = Mem.create () in
  let backend = Mem.backend fs in
  let dir = "reg" in
  let entry = sample_entry ~app:"sim-test/app" space_a in
  (match Registry.save ~backend ~dir entry with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Registry.error_to_string e));
  (* Load the entry stored under [fp]'s filename and classify it
     against [fp]. *)
  let load_for fp =
    match Registry.load ~backend (Registry.entry_path ~dir fp) with
    | Ok e -> (e, Registry.classify fp e)
    | Error e -> Alcotest.fail (Registry.error_to_string e)
  in
  (* The honest path verifies. *)
  (match load_for entry.Registry.fp with
  | e, Some Registry.Exact ->
    Alcotest.(check bool) "honest load verifies" true (entry_equal_strings e entry)
  | _, (Some (Registry.Overlap _) | None) -> Alcotest.fail "the honest entry is not exact");
  (* A colliding filename cannot smuggle a foreign donor in: plant the
     space_a entry at the path that space_b's fingerprint hashes to. *)
  let fp_b = Registry.fingerprint ~app:"sim-test/app" space_b in
  Mem.set_file fs (Registry.entry_path ~dir fp_b) (Registry.to_string entry);
  (match load_for fp_b with
  | _, Some (Registry.Overlap _) -> ()
  | _, Some Registry.Exact -> Alcotest.fail "a planted foreign entry classified as exact"
  | _, None -> Alcotest.fail "space_a and space_b share parameters");
  (* Likewise a different app over the identical space. *)
  let fp_other_app = Registry.fingerprint ~app:"sim-test/other" space_a in
  Mem.set_file fs (Registry.entry_path ~dir fp_other_app) (Registry.to_string entry);
  match load_for fp_other_app with
  | _, Some (Registry.Overlap _) -> ()
  | _, Some Registry.Exact -> Alcotest.fail "an entry for another app classified as exact"
  | _, None -> Alcotest.fail "the identical space shares every parameter"

(* ------------------------------------------------------------------ *)
(* Save: crash matrix                                                  *)
(* ------------------------------------------------------------------ *)

let registry_crash_step ~keep_unsynced ~keep_renames ~old_entry ~new_entry fuel =
  let fs = Mem.create ~keep_unsynced ~keep_renames () in
  let backend = Mem.backend fs in
  (match Registry.save ~backend ~keep:2 ~dir:"reg" old_entry with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Registry.error_to_string e));
  Mem.set_fuel fs fuel;
  (match Registry.save ~backend ~keep:2 ~dir:"reg" new_entry with
  | Ok _ | Error _ -> ()
  | exception Mem.Crashed -> ());
  Mem.crash fs;
  let primary = Registry.entry_path ~dir:"reg" old_entry.Registry.fp in
  let loaded =
    match Registry.load ~backend primary with
    | Ok e -> Some e
    | Error _ -> (
      (* The primary can be mid-rotation; a reader (like fsck or the
         CLI's lookup) falls back to the rotated generation. *)
      match Registry.load ~backend (Durable.generation_path primary 1) with
      | Ok e -> Some e
      | Error _ -> None)
  in
  match loaded with
  | None ->
    Alcotest.failf "fuel %d (unsynced=%b renames=%b): no generation loads" fuel keep_unsynced
      keep_renames
  | Some e ->
    if not (entry_equal_strings e old_entry || entry_equal_strings e new_entry) then
      Alcotest.failf "fuel %d (unsynced=%b renames=%b): loaded neither old nor new entry" fuel
        keep_unsynced keep_renames

let test_save_crash_matrix () =
  let old_entry = sample_entry ~seed:1 ~model:[| 1.; 2.; 3. |] space_a in
  let new_entry = sample_entry ~seed:2 ~model:[| 4.; 5.; 6.; 7. |] space_a in
  let total =
    let probe = Mem.create () in
    let backend = Mem.backend probe in
    (match Registry.save ~backend ~keep:2 ~dir:"reg" old_entry with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Registry.error_to_string e));
    let before = Mem.cost probe in
    (match Registry.save ~backend ~keep:2 ~dir:"reg" new_entry with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Registry.error_to_string e));
    Mem.cost probe - before
  in
  List.iter
    (fun (keep_unsynced, keep_renames) ->
      for fuel = 0 to total do
        registry_crash_step ~keep_unsynced ~keep_renames ~old_entry ~new_entry fuel
      done)
    fault_plans

(* ------------------------------------------------------------------ *)
(* Corruption detection completeness                                   *)
(* ------------------------------------------------------------------ *)

let test_every_byte_flip_detected () =
  let e = sample_entry space_a in
  let content = Registry.to_string e in
  let undetected = ref [] in
  String.iteri
    (fun i c ->
      let corrupted = Bytes.of_string content in
      Bytes.set corrupted i (Char.chr (Char.code c lxor 0x01));
      let corrupted = Bytes.to_string corrupted in
      match Registry.of_string corrupted with
      | Error _ -> () (* detected: typed corruption *)
      | Ok e' ->
        (* A parse that still succeeds must at least have lost its seal
           (fsck reports Unsealed, never Valid). *)
        if e'.Registry.sealed then undetected := i :: !undetected)
    content;
  Alcotest.(check (list int)) "every single-byte flip detected" [] (List.rev !undetected)

(* ------------------------------------------------------------------ *)
(* Lookup ranking and incumbent projection                             *)
(* ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir = Filename.temp_file "wayfinder-registry" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_lookup_ranking () =
  with_temp_dir (fun dir ->
      let exact = sample_entry ~app:"sim-test/app" space_a in
      let overlap = sample_entry ~app:"sim-test/app" space_b in
      let other_app = sample_entry ~app:"sim-test/other" space_b in
      List.iter
        (fun e ->
          match Registry.save ~dir e with
          | Ok _ -> ()
          | Error err -> Alcotest.fail (Registry.error_to_string err))
        [ overlap; other_app; exact ];
      match Registry.lookup ~dir (Registry.fingerprint ~app:"sim-test/app" space_a) with
      | (_, e1, Registry.Exact) :: (_, e2, Registry.Overlap o2) :: (_, e3, Registry.Overlap _) :: []
        ->
        Alcotest.(check bool) "exact first" true (entry_equal_strings e1 exact);
        Alcotest.(check bool) "same-app overlap second" true (entry_equal_strings e2 overlap);
        Alcotest.(check int) "two shared params" 2 o2.shared;
        Alcotest.(check bool) "other app last" true (entry_equal_strings e3 other_app)
      | ranked -> Alcotest.failf "unexpected ranking (%d candidates)" (List.length ranked))

let test_project_incumbents () =
  (* Donor incumbent on space_a: poll on, buf 4096, SMP=y, sched "rt". *)
  let donor =
    { (sample_entry ~app:"sim-test/app" space_a) with
      Registry.incumbents =
        [ [| Param.Vbool true; Param.Vint 4096; Param.Vtristate 2; Param.Vcat 2 |] ]
    }
  in
  (* Target: shared buf.kb with a narrower range (clamp), shared net.poll
     pinned (pin wins over the donor), one new parameter (default). *)
  let target =
    Space.fix
      (Space.create
         [ Param.bool_param "net.poll" true;
           Param.int_param ~log_scale:true "buf.kb" ~lo:4 ~hi:64 ~default:16;
           Param.bool_param "extra.flag" false ])
      [ ("net.poll", Param.Vbool false) ]
  in
  match Registry.project_incumbents donor target with
  | [ projected ] ->
    Alcotest.(check bool) "pin wins over the donor value" true
      (Param.value_equal projected.(0) (Param.Vbool false));
    Alcotest.(check bool) "donor value clamped into the target range" true
      (Param.value_equal projected.(1) (Param.Vint 64));
    Alcotest.(check bool) "new parameter takes its default" true
      (Param.value_equal projected.(2) (Param.Vbool false))
  | l -> Alcotest.failf "expected one projected incumbent, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Drift probe                                                         *)
(* ------------------------------------------------------------------ *)

let series_of rows_spec =
  let rows =
    Array.of_list
      (List.mapi
         (fun i spec ->
           let value, failure =
             match spec with
             | `Ok v -> (Some v, None)
             | `Crash -> (None, Some Failure.Runtime_crash)
           in
           { A.Series.index = i;
             tokens = [||];
             value;
             failure;
             at_seconds = float_of_int i;
             eval_seconds = 1.;
             built = true;
             decide_seconds = 0.;
             belief = None;
             objectives = None })
         rows_spec)
  in
  { A.Series.metric = Metric.make ~name:"throughput" ~unit_name:"req/s" ();
    names = [||];
    stages = [||];
    rows;
    objectives = [||] }

let test_drift_fresh_and_stale () =
  let healthy = series_of (List.init 20 (fun i -> `Ok (100. +. float_of_int (i mod 3)))) in
  let p = A.Drift.probe ~donor_crash_rate:0.1 ~donor_mean:100. healthy in
  Alcotest.(check bool) "matching distribution is fresh" true (p.A.Drift.verdict = A.Drift.Fresh);
  let crashing = series_of (List.init 20 (fun _ -> `Crash)) in
  let p = A.Drift.probe ~donor_crash_rate:0.1 ~donor_mean:100. crashing in
  (match p.A.Drift.verdict with
  | A.Drift.Stale _ -> ()
  | A.Drift.Fresh -> Alcotest.fail "all-crash window must read as drift");
  let shifted = series_of (List.init 20 (fun _ -> `Ok 400.)) in
  let p = A.Drift.probe ~donor_crash_rate:0.1 ~donor_mean:100. shifted in
  (match p.A.Drift.verdict with
  | A.Drift.Stale _ -> ()
  | A.Drift.Fresh -> Alcotest.fail "a 4x mean shift must read as drift");
  (* Too few live rows never vote: absence of evidence keeps the warm
     start. *)
  let tiny = series_of [ `Crash; `Crash; `Crash ] in
  let p = A.Drift.probe ~donor_crash_rate:0.0 ~donor_mean:100. tiny in
  Alcotest.(check bool) "below min_samples is never drift" true
    (p.A.Drift.verdict = A.Drift.Fresh)

let test_drift_windowing () =
  (* An old incident followed by a recovered tail: only the trailing
     window votes, so the series reads fresh. *)
  let recovered =
    series_of
      (List.init 30 (fun _ -> `Crash) @ List.init 25 (fun _ -> `Ok 101.))
  in
  let p = A.Drift.probe ~window:20 ~donor_crash_rate:0.05 ~donor_mean:100. recovered in
  Alcotest.(check bool) "recovered tail is fresh" true (p.A.Drift.verdict = A.Drift.Fresh)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "registry"
    [ ( "roundtrip",
        [ Alcotest.test_case "sealed entry round-trips" `Quick test_roundtrip;
          Alcotest.test_case "body without trailer loads unsealed" `Quick test_unsealed_loads;
          QCheck_alcotest.to_alcotest prop_roundtrip_bitwise ] );
      ( "fingerprint",
        [ Alcotest.test_case "mismatch is typed, filename never trusted" `Quick
            test_fingerprint_mismatch_is_typed ] );
      ( "durability",
        [ Alcotest.test_case "save crash matrix: old or new, never torn" `Quick
            test_save_crash_matrix;
          Alcotest.test_case "every single-byte flip detected" `Quick
            test_every_byte_flip_detected ] );
      ( "transfer",
        [ Alcotest.test_case "lookup ranks exact, then overlap" `Quick test_lookup_ranking;
          Alcotest.test_case "incumbent projection: pins, clamps, defaults" `Quick
            test_project_incumbents ] );
      ( "drift",
        [ Alcotest.test_case "fresh vs stale verdicts" `Quick test_drift_fresh_and_stale;
          Alcotest.test_case "only the trailing window votes" `Quick test_drift_windowing ] )
    ]
