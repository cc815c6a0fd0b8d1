(* Crash consistency, proven: CRC-32 vectors, the atomic-write and
   checkpoint-save crash matrices over the deterministic fault backend
   (every byte and operation boundary, under every loss plan), ledger
   torn-tail salvage at every cut point, fsck detection completeness
   over seeded corruption, and crash recovery composed with the
   kill-and-resume test at a 10 % fault rate. *)

open Wayfinder_platform
module A = Wayfinder_analytics
module S = Wayfinder_simos
module Faults = S.Faults
module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Obs = Wayfinder_obs
module D = Wayfinder_deeptune
module M = Wayfinder_monitor
module Mem = Durable.Mem

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let fault_plans = [ (false, false); (false, true); (true, false); (true, true) ]

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let test_crc_known_answers () =
  (* The IEEE 802.3 check value. *)
  Alcotest.(check string) "check vector" "cbf43926" (Crc32.to_hex (Crc32.digest "123456789"));
  Alcotest.(check string) "empty string" "00000000" (Crc32.to_hex (Crc32.digest ""));
  Alcotest.(check bool) "of_hex inverts to_hex" true
    (Crc32.of_hex "cbf43926" = Some (Crc32.digest "123456789"));
  Alcotest.(check bool) "of_hex rejects non-hex" true (Crc32.of_hex "not-hex!" = None);
  Alcotest.(check bool) "of_hex rejects short input" true (Crc32.of_hex "abc" = None)

let prop_crc_streaming =
  QCheck2.Test.make ~name:"streaming crc equals one-shot digest" ~count:200
    QCheck2.Gen.(pair string nat)
    (fun (s, k) ->
      let k = if s = "" then 0 else k mod (String.length s + 1) in
      let a = String.sub s 0 k and b = String.sub s k (String.length s - k) in
      Crc32.finish (Crc32.update (Crc32.update Crc32.init a) b) = Crc32.digest s)

(* The unboxed fold equals the [Int32] one it replaced at every split
   point of a streamed string. *)
let prop_crc_matches_oracle =
  QCheck2.Test.make ~name:"crc equals the Int32 fold at every split point" ~count:300
    QCheck2.Gen.(pair (string_size ~gen:char (int_range 0 400)) (list_size (int_range 0 5) nat))
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts = List.sort compare (List.map (fun k -> k mod (n + 1)) cuts) @ [ n ] in
      let pieces, _ =
        List.fold_left (fun (acc, from) cut -> (String.sub s from (cut - from) :: acc, cut)) ([], 0)
          cuts
      in
      let states update =
        List.fold_left (fun acc piece -> update (List.hd acc) piece :: acc) [ Crc32.init ]
          (List.rev pieces)
      in
      states Crc32.update = states Oracle.crc32_update)

(* ------------------------------------------------------------------ *)
(* Atomic write: crash matrix                                          *)
(* ------------------------------------------------------------------ *)

let old_content = "old content, durable before the test begins\n"

let new_content =
  String.concat "" (List.init 12 (fun i -> Printf.sprintf "replacement line %d\n" i))

let test_atomic_write_publishes () =
  let fs = Mem.create () in
  let backend = Mem.backend fs in
  (match Durable.atomic_write ~backend ~path:"f" new_content with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Durable.io_error_to_string e));
  Alcotest.(check bool) "content published" true (Mem.get_file fs "f" = Some new_content);
  Alcotest.(check bool) "no staging file left" true (Mem.list_files fs = [ "f" ])

let test_atomic_write_crash_matrix () =
  (* One uninterrupted run fixes the sweep range: cost is 1 per
     primitive plus 1 per byte written, so fuel 0..total kills the
     protocol at every operation and byte boundary. *)
  let probe = Mem.create () in
  Mem.set_file probe "f" old_content;
  (match Durable.atomic_write ~backend:(Mem.backend probe) ~path:"f" new_content with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Durable.io_error_to_string e));
  let total = Mem.cost probe in
  let states = ref 0 in
  List.iter
    (fun (keep_unsynced, keep_renames) ->
      for fuel = 0 to total do
        let fs = Mem.create ~keep_unsynced ~keep_renames () in
        Mem.set_file fs "f" old_content;
        Mem.set_fuel fs fuel;
        (match Durable.atomic_write ~backend:(Mem.backend fs) ~path:"f" new_content with
        | Ok () | Error _ -> ()
        | exception Mem.Crashed -> ());
        Mem.crash fs;
        (match Mem.get_file fs "f" with
        | Some c when c = old_content || c = new_content -> incr states
        | Some c ->
          Alcotest.failf "fuel %d (unsynced=%b renames=%b): torn content %S" fuel keep_unsynced
            keep_renames c
        | None ->
          Alcotest.failf "fuel %d (unsynced=%b renames=%b): file disappeared" fuel keep_unsynced
            keep_renames)
      done)
    fault_plans;
  Alcotest.(check int) "full matrix exercised" (4 * (total + 1)) !states

(* ------------------------------------------------------------------ *)
(* Checkpoint save: crash matrix with generation rotation              *)
(* ------------------------------------------------------------------ *)

let mk_entry index =
  { History.index;
    config = [| Param.Vint (index mod 13) |];
    value = (if index mod 3 = 0 then None else Some (100.5 +. float_of_int index));
    failure = (if index mod 3 = 0 then Some Failure.Runtime_crash else None);
    at_seconds = 0.5 *. float_of_int (index + 1);
    eval_seconds = 16.25;
    built = index mod 2 = 0;
    decide_seconds = 1e-4; objectives = None }

let sample_ck n =
  { Checkpoint.seed = 42;
    rng_state = Int64.of_int (9999 + n);
    clock_seconds = float_of_int n *. 7.5;
    budget_start_seconds = 0.;
    iterations = n;
    workers = 1;
    consecutive_invalid = 0;
    cache_capacity = 1;
    cache = [];
    strikes = [];
    quarantined = [];
    entries = List.init n mk_entry;
    inflight = [];
    pareto = [];
    trace_cursor = None }

let save_now ~backend ck = Checkpoint.save ~backend ~keep:2 ~path:"s.ckpt" ck

(* The same save through a background publisher: the kill lands on its
   writer thread and comes back from [drain]. *)
let save_in_background ~backend ck =
  let publisher = Durable.Publisher.create ~backend () in
  Durable.Publisher.submit publisher ~keep:2 ~path:"s.ckpt" (fun () -> Checkpoint.to_string ck);
  Durable.Publisher.drain publisher

let checkpoint_crash_step ?(save = save_now) ~keep_unsynced ~keep_renames ~old_ck ~new_ck fuel =
  let fs = Mem.create ~keep_unsynced ~keep_renames () in
  let backend = Mem.backend fs in
  Checkpoint.save ~backend ~keep:2 ~path:"s.ckpt" old_ck;
  Mem.set_fuel fs fuel;
  (match save ~backend new_ck with
  | () -> ()
  | exception Mem.Crashed -> ()
  | exception Durable.Io_error _ -> ());
  Mem.crash fs;
  match Checkpoint.load_latest ~backend "s.ckpt" with
  | Error e ->
    Alcotest.failf "fuel %d (unsynced=%b renames=%b): no generation loads: %s" fuel
      keep_unsynced keep_renames (Checkpoint.error_to_string e)
  | Ok (ck, _) ->
    if not (ck = old_ck || ck = new_ck) then
      Alcotest.failf "fuel %d (unsynced=%b renames=%b): loaded neither old nor new state" fuel
        keep_unsynced keep_renames

let checkpoint_save_cost ~old_ck ~new_ck =
  let probe = Mem.create () in
  let backend = Mem.backend probe in
  Checkpoint.save ~backend ~keep:2 ~path:"s.ckpt" old_ck;
  let before = Mem.cost probe in
  Checkpoint.save ~backend ~keep:2 ~path:"s.ckpt" new_ck;
  Mem.cost probe - before

let test_checkpoint_save_crash_matrix ?save () =
  (* Small checkpoints keep the exhaustive per-byte sweep fast. *)
  let old_ck = sample_ck 2 and new_ck = sample_ck 3 in
  let total = checkpoint_save_cost ~old_ck ~new_ck in
  List.iter
    (fun (keep_unsynced, keep_renames) ->
      for fuel = 0 to total do
        checkpoint_crash_step ?save ~keep_unsynced ~keep_renames ~old_ck ~new_ck fuel
      done)
    fault_plans

let prop_checkpoint_crash_matrix =
  (* The qcheck face of the same property, on a larger checkpoint:
     random kill points and loss plans, recovery always yields old or
     new. *)
  let old_ck = sample_ck 12 and new_ck = sample_ck 13 in
  let total = checkpoint_save_cost ~old_ck ~new_ck in
  QCheck2.Test.make ~name:"checkpoint save killed anywhere recovers old or new" ~count:150
    QCheck2.Gen.(triple (int_range 0 total) bool bool)
    (fun (fuel, keep_unsynced, keep_renames) ->
      checkpoint_crash_step ~keep_unsynced ~keep_renames ~old_ck ~new_ck fuel;
      true)

let test_checkpoint_generation_rotation () =
  let fs = Mem.create () in
  let backend = Mem.backend fs in
  for n = 1 to 5 do
    Checkpoint.save ~backend ~keep:3 ~path:"s.ckpt" (sample_ck n)
  done;
  Alcotest.(check (list string)) "three generations retained"
    [ "s.ckpt"; "s.ckpt.1"; "s.ckpt.2" ] (Mem.list_files fs);
  let gen i =
    match Checkpoint.load_from ~backend ~path:(Checkpoint.generation_path "s.ckpt" i) with
    | Ok ck -> ck.Checkpoint.iterations
    | Error e -> Alcotest.failf "generation %d: %s" i (Checkpoint.error_to_string e)
  in
  Alcotest.(check (list int)) "newest first" [ 5; 4; 3 ] [ gen 0; gen 1; gen 2 ];
  (* Corrupt the primary: load_latest falls back and says so. *)
  Mem.flip_bit fs "s.ckpt" 300;
  match Checkpoint.load_latest ~backend "s.ckpt" with
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
  | Ok (ck, notice) ->
    Alcotest.(check int) "fell back one generation" 4 ck.Checkpoint.iterations;
    (match notice with
    | Some (Checkpoint.Recovered_from_generation { generation = 1; dropped = [ _ ]; _ }) -> ()
    | Some n -> Alcotest.failf "unexpected notice: %s" (Checkpoint.notice_to_string n)
    | None -> Alcotest.fail "expected a recovery notice")

(* ------------------------------------------------------------------ *)
(* Journal: a whole first save, then appends                           *)
(* ------------------------------------------------------------------ *)

(* The payloads a run writes for these snapshots, as the driver makes
   them: the first whole, each later one the entries since the previous
   snapshot plus a state record. *)
let journal_payloads cks =
  let rec go j saved = function
    | [] -> []
    | ck :: rest ->
      let fresh = List.filteri (fun i _ -> i >= saved) ck.Checkpoint.entries in
      let payload, j = Checkpoint.extend j { ck with Checkpoint.entries = fresh } in
      payload :: go j ck.Checkpoint.iterations rest
  in
  match cks with
  | [] -> []
  | first :: rest ->
    let payload, j = Checkpoint.start first in
    payload :: go j first.Checkpoint.iterations rest

let journal_cks = [ sample_ck 1; sample_ck 3; sample_ck 4 ]

(* Write the journal through a publisher, draining after each save as a
   run's cadence would; returns how many saves completed and the newest
   state whose bytes reached an fsync.  The kill lands on the writer
   thread and comes back from [drain]. *)
let write_journal fs =
  let mem = Mem.backend fs in
  let writing = ref 0 and fsynced = ref 0 and completed = ref 0 in
  let backend =
    { mem with
      Durable.fsync =
        (fun p ->
          mem.Durable.fsync p;
          fsynced := !writing) }
  in
  let publisher = Durable.Publisher.create ~backend () in
  (try
     List.iteri
       (fun i payload ->
         writing := i + 1;
         if i = 0 then
           Durable.Publisher.submit publisher ~keep:2 ~path:"s.ckpt" (fun () -> payload)
         else Durable.Publisher.append publisher ~path:"s.ckpt" payload;
         Durable.Publisher.drain publisher;
         completed := i + 1)
       (journal_payloads journal_cks)
   with Mem.Crashed | Durable.Io_error _ -> ());
  (!completed, !fsynced)

let test_journal_crash_matrix () =
  let probe = Mem.create () in
  ignore (write_journal probe);
  let total = Mem.cost probe in
  let state_of = function
    | Error _ -> 0
    | Ok (ck, _) -> (
      match List.find_index (fun c -> c = ck) journal_cks with
      | Some i -> i + 1
      | None -> -1)
  in
  List.iter
    (fun (keep_unsynced, keep_renames) ->
      for fuel = 0 to total do
        let fs = Mem.create ~keep_unsynced ~keep_renames () in
        Mem.set_fuel fs fuel;
        let completed, fsynced = write_journal fs in
        Mem.crash fs;
        let loaded = Checkpoint.load_latest ~backend:(Mem.backend fs) "s.ckpt" in
        let k = state_of loaded in
        let fail what =
          Alcotest.failf "fuel %d (unsynced=%b renames=%b), %d saves completed: %s" fuel
            keep_unsynced keep_renames completed what
        in
        (match loaded with
        | Error e when completed >= 1 -> fail ("no state loads: " ^ Checkpoint.error_to_string e)
        | Error _ | Ok _ -> ());
        if k <> completed && k <> completed + 1 then
          fail (Printf.sprintf "loaded state %d, neither before nor after the interrupted save" k);
        if (not keep_unsynced) && k > fsynced then
          fail (Printf.sprintf "loaded state %d, but only %d reached an fsync" k fsynced)
      done)
    fault_plans

(* ------------------------------------------------------------------ *)
(* Background publisher                                                *)
(* ------------------------------------------------------------------ *)

(* A backend whose primitives each wait for a permit from the test, so
   submissions interleave with the writer thread at chosen points. *)
type gate = { m : Mutex.t; c : Condition.t; mutable permits : int; mutable opened : bool }

let gated (g : gate) (b : Durable.backend) =
  let pass () =
    Mutex.protect g.m (fun () ->
        while (not g.opened) && g.permits = 0 do
          Condition.wait g.c g.m
        done;
        if not g.opened then g.permits <- g.permits - 1)
  in
  { b with
    Durable.write = (fun p d -> pass (); b.Durable.write p d);
    append = (fun p d -> pass (); b.Durable.append p d);
    fsync = (fun p -> pass (); b.Durable.fsync p);
    rename = (fun ~src ~dst -> pass (); b.Durable.rename ~src ~dst);
    fsync_dir = (fun p -> pass (); b.Durable.fsync_dir p);
    exists = (fun p -> pass (); b.Durable.exists p) }

let release (g : gate) f =
  Mutex.protect g.m (fun () ->
      f g;
      Condition.broadcast g.c)

type pub_op = Submit of int | Allow of int

let prop_publisher_newest_wins =
  QCheck2.Test.make ~count:200
    ~name:"published payloads are an increasing subsequence ending with the last"
    ~print:(fun ops ->
      String.concat " "
        (List.map (function Submit p -> Printf.sprintf "submit:%d" p | Allow k -> Printf.sprintf "allow:%d" k) ops))
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (oneof [ map (fun p -> Submit p) (int_bound 1); map (fun k -> Allow k) (int_bound 6) ]))
    (fun ops ->
      let fs = Mem.create () in
      let mem = Mem.backend fs in
      let paths = [| "a.prom"; "b.prom" |] in
      (* Every payload that reaches a path, as the writer renames it in. *)
      let landed = Hashtbl.create 8 and encoded = ref 0 in
      let g = { m = Mutex.create (); c = Condition.create (); permits = 0; opened = false } in
      let gate = gated g mem in
      let backend =
        { gate with
          Durable.rename =
            (fun ~src ~dst ->
              gate.Durable.rename ~src ~dst;
              Hashtbl.add landed dst (int_of_string (Option.get (Mem.get_file fs dst)))) }
      in
      let publisher = Durable.Publisher.create ~backend () in
      let submitted = Hashtbl.create 8 and seq = ref 0 in
      List.iter
        (function
          | Submit p ->
            incr seq;
            let v = !seq in
            Hashtbl.add submitted paths.(p) v;
            Durable.Publisher.submit publisher ~path:paths.(p) (fun () ->
                incr encoded;
                string_of_int v)
          | Allow k -> release g (fun g -> g.permits <- g.permits + k))
        ops;
      release g (fun g -> g.opened <- true);
      Durable.Publisher.drain publisher;
      let rec increasing = function a :: (b :: _ as rest) -> a < b && increasing rest | _ -> true in
      let last = List.fold_left (fun _ x -> Some x) None in
      Array.for_all
        (fun path ->
          (* [Hashtbl.find_all] lists the newest binding first. *)
          let subs = List.rev (Hashtbl.find_all submitted path) in
          let pubs = List.rev (Hashtbl.find_all landed path) in
          increasing pubs
          && List.for_all (fun v -> List.mem v subs) pubs
          && last pubs = last subs
          && Mem.get_file fs path = Option.map string_of_int (last subs))
        paths
      && !encoded = Hashtbl.length landed
      && List.for_all (fun f -> Array.mem f paths) (Mem.list_files fs))

let test_publisher_reports_failure () =
  let fs = Mem.create () in
  Mem.set_file fs "m.prom" "old\n";
  let mem = Mem.backend fs in
  let backend =
    { mem with
      Durable.fsync =
        (fun path -> raise (Durable.Io_error { Durable.op = "fsync"; path; reason = "disk full" })) }
  in
  let publisher = Durable.Publisher.create ~backend () in
  let unchanged what =
    Alcotest.(check (list string)) (what ^ ": no staging file left") [ "m.prom" ] (Mem.list_files fs);
    Alcotest.(check (option string)) (what ^ ": old file intact") (Some "old\n")
      (Mem.get_file fs "m.prom")
  in
  Durable.Publisher.submit publisher ~path:"m.prom" (fun () -> "new\n");
  (match Durable.Publisher.drain publisher with
  | () -> Alcotest.fail "drain hid the failed publish"
  | exception Durable.Io_error e -> Alcotest.(check string) "the backend's error" "fsync" e.Durable.op);
  unchanged "after drain";
  Durable.Publisher.drain publisher;
  (* Without a drain, a later submit reports the failure instead of
     queueing. *)
  let rec until_reported tries =
    if tries = 0 then Alcotest.fail "no submit reported the failed publish";
    match Durable.Publisher.submit publisher ~path:"m.prom" (fun () -> "newer\n") with
    | () ->
      Unix.sleepf 0.001;
      until_reported (tries - 1)
    | exception Durable.Io_error e -> e
  in
  Alcotest.(check string) "submit reports it" "fsync" (until_reported 5000).Durable.op;
  (try Durable.Publisher.drain publisher with Durable.Io_error _ -> ());
  unchanged "after submit"

type append_op = Append_to of int | Publish_to of int | Permit of int

let prop_publisher_appends_in_order =
  QCheck2.Test.make ~count:200
    ~name:"appends land in submission order after the pending publish, each batch fsynced"
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | Append_to p -> Printf.sprintf "append:%d" p
             | Publish_to p -> Printf.sprintf "publish:%d" p
             | Permit k -> Printf.sprintf "allow:%d" k)
           ops))
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (frequency
           [ (4, map (fun p -> Append_to p) (int_bound 1));
             (1, map (fun p -> Publish_to p) (int_bound 1));
             (3, map (fun k -> Permit k) (int_bound 6)) ]))
    (fun ops ->
      let fs = Mem.create () in
      let g = { m = Mutex.create (); c = Condition.create (); permits = 0; opened = false } in
      let publisher = Durable.Publisher.create ~backend:(gated g (Mem.backend fs)) () in
      let paths = [| "a.ckpt"; "b.ckpt" |] in
      let expected = Array.make 2 None and seq = ref 0 in
      List.iter
        (function
          | Append_to p ->
            incr seq;
            let payload = Printf.sprintf "a%d;" !seq in
            expected.(p) <- Some (Option.value expected.(p) ~default:"" ^ payload);
            Durable.Publisher.append publisher ~path:paths.(p) payload
          | Publish_to p ->
            incr seq;
            let payload = Printf.sprintf "p%d;" !seq in
            expected.(p) <- Some payload;
            Durable.Publisher.submit publisher ~path:paths.(p) (fun () -> payload)
          | Permit k -> release g (fun g -> g.permits <- g.permits + k))
        ops;
      release g (fun g -> g.opened <- true);
      Durable.Publisher.drain publisher;
      (* Every batch was fsynced: a crash that drops un-fsynced bytes
         leaves the files as they are. *)
      Mem.crash fs;
      Array.for_all2 (fun path want -> Mem.get_file fs path = want) paths expected)

let test_publisher_append_reports_failure () =
  let fs = Mem.create () in
  Mem.set_file fs "j.ckpt" "old\n";
  let mem = Mem.backend fs in
  let backend =
    { mem with
      Durable.fsync =
        (fun path -> raise (Durable.Io_error { Durable.op = "fsync"; path; reason = "disk full" })) }
  in
  let publisher = Durable.Publisher.create ~backend () in
  Durable.Publisher.append publisher ~path:"j.ckpt" "new\n";
  (match Durable.Publisher.drain publisher with
  | () -> Alcotest.fail "drain hid the failed append"
  | exception Durable.Io_error e -> Alcotest.(check string) "the backend's error" "fsync" e.Durable.op);
  Durable.Publisher.drain publisher;
  let rec until_reported tries =
    if tries = 0 then Alcotest.fail "no append reported the failed fsync";
    match Durable.Publisher.append publisher ~path:"j.ckpt" "newer\n" with
    | () ->
      Unix.sleepf 0.001;
      until_reported (tries - 1)
    | exception Durable.Io_error e -> e
  in
  Alcotest.(check string) "append reports it" "fsync" (until_reported 5000).Durable.op;
  (try Durable.Publisher.drain publisher with Durable.Io_error _ -> ());
  Mem.crash fs;
  Alcotest.(check (option string)) "no un-fsynced byte became durable" (Some "old\n")
    (Mem.get_file fs "j.ckpt")

(* ------------------------------------------------------------------ *)
(* Ledger: torn tails, salvage, typed errors                           *)
(* ------------------------------------------------------------------ *)

let ledger_space () = Space.create [ Param.int_param "x" ~lo:0 ~hi:12 ~default:3 ]

(* A sealed ledger's exact bytes, via the real writer. *)
let sealed_ledger_bytes ?(rows = 8) () =
  let path = Filename.temp_file "wayfinder" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let w =
        A.Ledger.create_writer ~seed:7 ~algo:"random" ~space:(ledger_space ())
          ~metric:Metric.throughput path
      in
      for i = 0 to rows - 1 do
        A.Ledger.record w (mk_entry i) None
      done;
      A.Ledger.close_writer w;
      In_channel.with_open_bin path In_channel.input_all)

let test_ledger_seal_roundtrip () =
  let full = sealed_ledger_bytes () in
  match A.Ledger.of_string full with
  | Error e -> Alcotest.fail (A.Ledger.error_to_string e)
  | Ok t ->
    Alcotest.(check bool) "sealed" true t.A.Ledger.sealed;
    Alcotest.(check int) "all rows" 8 (List.length t.A.Ledger.rows)

let test_ledger_torn_tail_matrix () =
  let full = sealed_ledger_bytes () in
  let full_rows =
    match A.Ledger.of_string full with
    | Ok t -> Array.of_list t.A.Ledger.rows
    | Error e -> Alcotest.fail (A.Ledger.error_to_string e)
  in
  let header_end = String.index full '\n' + 1 in
  let meta_end = String.index_from full header_end '\n' + 1 in
  for cut = 0 to String.length full do
    let s = String.sub full 0 cut in
    match A.Ledger.salvage_string s with
    | Error _ ->
      if cut >= meta_end then
        Alcotest.failf "cut %d: salvage refused a file with intact header+meta" cut
    | Ok r ->
      if cut < meta_end - 1 then
        Alcotest.failf "cut %d: salvage accepted a damaged header/meta" cut;
      let rows = Array.of_list r.A.Ledger.ledger.A.Ledger.rows in
      (* Salvaged rows are exactly the fully-written prefix. *)
      Array.iteri
        (fun i (row : A.Ledger.row) ->
          if row.A.Ledger.index <> full_rows.(i).A.Ledger.index then
            Alcotest.failf "cut %d: salvaged row %d diverges from the original" cut i)
        rows;
      Alcotest.(check bool)
        (Printf.sprintf "cut %d: at most the torn line dropped" cut)
        true
        (List.length r.A.Ledger.dropped <= 1);
      (* Repairing any truncation yields a loadable, sealed ledger with
         the clean-prefix rows. *)
      (match A.Ledger.repair_string s with
      | Error e -> Alcotest.failf "cut %d: repair failed: %s" cut (A.Ledger.error_to_string e)
      | Ok (fixed, report) -> (
        match A.Ledger.of_string fixed with
        | Error e ->
          Alcotest.failf "cut %d: repaired ledger unreadable: %s" cut
            (A.Ledger.error_to_string e)
        | Ok t ->
          Alcotest.(check bool) (Printf.sprintf "cut %d: repaired is sealed" cut) true
            t.A.Ledger.sealed;
          Alcotest.(check int)
            (Printf.sprintf "cut %d: repaired rows" cut)
            report.A.Ledger.clean_prefix_rows
            (List.length t.A.Ledger.rows)))
  done

let test_ledger_typed_errors () =
  let full = sealed_ledger_bytes () in
  let header_end = String.index full '\n' + 1 in
  (* Truncated header: not a ledger at all. *)
  (match A.Ledger.of_string (String.sub full 0 5) with
  | Error A.Ledger.Missing_header -> ()
  | Error e -> Alcotest.failf "expected Missing_header, got %s" (A.Ledger.error_to_string e)
  | Ok _ -> Alcotest.fail "truncated header accepted");
  (* Truncated meta: position-anchored Malformed. *)
  (match A.Ledger.of_string (String.sub full 0 (header_end + 3)) with
  | Error (A.Ledger.Malformed msg) ->
    Alcotest.(check bool)
      (Printf.sprintf "meta error names line 2 and byte offset: %S" msg)
      true
      (contains_sub msg (Printf.sprintf "line 2 (byte %d)" header_end))
  | Error e -> Alcotest.failf "expected Malformed, got %s" (A.Ledger.error_to_string e)
  | Ok _ -> Alcotest.fail "truncated meta accepted");
  (* Torn tail mid-row: Malformed with the line/byte anchor. *)
  (match A.Ledger.of_string (String.sub full 0 (String.length full - 60)) with
  | Error (A.Ledger.Malformed msg) ->
    Alcotest.(check bool)
      (Printf.sprintf "torn tail names its position: %S" msg)
      true
      (contains_sub msg "line " && contains_sub msg " (byte ")
  | Error e -> Alcotest.failf "expected Malformed, got %s" (A.Ledger.error_to_string e)
  | Ok _ -> Alcotest.fail "torn tail accepted");
  (* A bit flip that keeps every line valid JSON is still caught by the
     fin seal's CRC. *)
  let flipped =
    let target = "\"i\":1" in
    let rec find i =
      if i + String.length target > String.length full then
        Alcotest.fail "row marker not found"
      else if String.sub full i (String.length target) = target then i
      else find (i + 1)
    in
    let i = find 0 in
    let b = Bytes.of_string full in
    Bytes.set b (i + 4) '2';
    Bytes.to_string b
  in
  (match A.Ledger.of_string flipped with
  | Error (A.Ledger.Malformed msg) ->
    Alcotest.(check bool)
      (Printf.sprintf "silent bit flip caught by the seal: %S" msg)
      true (contains_sub msg "crc mismatch")
  | Error e -> Alcotest.failf "expected crc mismatch, got %s" (A.Ledger.error_to_string e)
  | Ok _ -> Alcotest.fail "bit-flipped sealed ledger accepted");
  (* Without its fin line the same file is merely unsealed, not corrupt:
     a killed writer is the normal case. *)
  let fin_start = String.rindex_from full (String.length full - 2) '\n' + 1 in
  match A.Ledger.of_string (String.sub full 0 fin_start) with
  | Ok t ->
    Alcotest.(check bool) "unsealed" false t.A.Ledger.sealed;
    Alcotest.(check int) "all rows kept" 8 (List.length t.A.Ledger.rows)
  | Error e -> Alcotest.failf "unsealed ledger rejected: %s" (A.Ledger.error_to_string e)

(* ------------------------------------------------------------------ *)
(* fsck: detection completeness over seeded corruption                 *)
(* ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir = Filename.temp_file "wayfinder_fsck" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let write_file path data = Durable.atomic_write_exn ~path data
let read_file path = In_channel.with_open_bin path In_channel.input_all

let flip_bit_in_file path bit =
  let b = Bytes.of_string (read_file path) in
  let byte = bit / 8 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (0x80 lsr (bit mod 8))));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

(* Status of a single file per fsck. *)
let fsck_status path =
  match (A.Fsck.scan [ path ]).A.Fsck.findings with
  | [ f ] -> f.A.Fsck.status
  | fs -> Alcotest.failf "expected one finding for %s, got %d" path (List.length fs)

let test_fsck_detects_all_seeded_corruption () =
  with_temp_dir (fun dir ->
      let ckpt = Filename.concat dir "search.ckpt" in
      let ledger = Filename.concat dir "run.jsonl" in
      let report = Filename.concat dir "report.json" in
      (* A journal of three records; its generations above hold one each. *)
      let journal = Filename.concat dir "run.ckpt" in
      let payloads = journal_payloads journal_cks in
      for n = 1 to 2 do
        Checkpoint.save ~keep:2 ~path:ckpt (sample_ck n)
      done;
      write_file journal (String.concat "" payloads);
      write_file ledger (sealed_ledger_bytes ());
      write_file report "{\"benchmark\":\"cache\",\"cells\":[{\"hits\":3}]}\n";
      (* Pristine tree: everything valid, exit clean. *)
      let pristine = A.Fsck.scan [ dir ] in
      Alcotest.(check bool) "pristine tree is clean" true pristine.A.Fsck.clean;
      Alcotest.(check int) "pristine: all valid" pristine.A.Fsck.scanned pristine.A.Fsck.valid;
      Alcotest.(check bool) "the journal's records are counted" true
        (List.exists
           (fun f ->
             f.A.Fsck.path = journal
             && f.A.Fsck.detail = "4 iterations, 0 in flight, 3 state records")
           pristine.A.Fsck.findings);
      let seeded = ref 0 and detected = ref 0 in
      let expect_detected path what ok =
        incr seeded;
        if ok then incr detected else Alcotest.failf "%s: %s went undetected" path what
      in
      (* Bit flips: every sampled position in checkpoints and the sealed
         ledger must be caught (CRC envelope / fin seal). *)
      List.iter
        (fun path ->
          let original = read_file path in
          let bits = 8 * String.length original in
          let rec sweep bit =
            if bit < bits then begin
              flip_bit_in_file path bit;
              expect_detected path
                (Printf.sprintf "bit flip at %d" bit)
                (fsck_status path = A.Fsck.Corrupt);
              Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc original);
              sweep (bit + 509)
            end
          in
          sweep 0)
        [ ckpt; ckpt ^ ".1"; ledger ];
      (* Truncations: any proper prefix of a checkpoint is corrupt,
         except one that ends a journal on a record, which is the
         journal of fewer saves; any proper prefix of a sealed ledger is
         at best unsealed, never valid. *)
      let truncation_sweep path ~ok =
        let original = read_file path in
        let len = String.length original in
        let rec sweep cut =
          if cut < len then begin
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc (String.sub original 0 cut));
            expect_detected path (Printf.sprintf "truncation at %d" cut) (ok (fsck_status path));
            Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc original);
            sweep (cut + 97)
          end
        in
        sweep 0
      in
      truncation_sweep ckpt ~ok:(fun st -> st = A.Fsck.Corrupt);
      truncation_sweep ledger ~ok:(fun st -> st <> A.Fsck.Valid);
      (* The multi-record journal: every variant goes to a fresh file,
         which costs far less than rewriting one in place, so every
         8th bit and every byte boundary are covered. *)
      let original = read_file journal in
      let variant_status content =
        let path = Filename.concat dir "variant.ckpt" in
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content);
        let st = fsck_status path in
        Sys.remove path;
        st
      in
      for bit = 0 to (8 * String.length original) - 1 do
        if bit mod 8 = bit / 8 mod 8 then begin
          let b = Bytes.of_string original in
          Bytes.set b (bit / 8)
            (Char.chr (Char.code original.[bit / 8] lxor (0x80 lsr (bit mod 8))));
          expect_detected journal
            (Printf.sprintf "bit flip at %d" bit)
            (variant_status (Bytes.to_string b) = A.Fsck.Corrupt)
        end
      done;
      let record_ends =
        List.fold_left (fun acc p -> (List.hd acc + String.length p) :: acc) [ 0 ] payloads
      in
      for cut = 0 to String.length original - 1 do
        let st = variant_status (String.sub original 0 cut) in
        expect_detected journal
          (Printf.sprintf "truncation at %d" cut)
          (if cut > 0 && List.mem cut record_ends then st = A.Fsck.Valid else st = A.Fsck.Corrupt)
      done;
      (* JSON report truncation: everything short of removing only the
         trailing newline is detected. *)
      let original = read_file report in
      let rec sweep cut =
        if cut <= String.length original - 2 then begin
          Out_channel.with_open_bin report (fun oc ->
              Out_channel.output_string oc (String.sub original 0 cut));
          expect_detected report
            (Printf.sprintf "truncation at %d" cut)
            (fsck_status report = A.Fsck.Corrupt);
          Out_channel.with_open_bin report (fun oc -> Out_channel.output_string oc original);
          sweep (cut + 7)
        end
      in
      sweep 0;
      (* Torn rename: the staging file survived, flagged as a stray. *)
      let tmp = ckpt ^ ".tmp" in
      Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc "partial");
      expect_detected tmp "torn rename staging file" (fsck_status tmp = A.Fsck.Stray);
      Sys.remove tmp;
      Alcotest.(check int)
        (Printf.sprintf "every seeded corruption detected (%d cases)" !seeded)
        !seeded !detected)

let test_fsck_repair_heals_the_tree () =
  with_temp_dir (fun dir ->
      let ckpt = Filename.concat dir "search.ckpt" in
      let ledger = Filename.concat dir "run.jsonl" in
      for n = 1 to 2 do
        Checkpoint.save ~keep:2 ~path:ckpt (sample_ck n)
      done;
      let full = sealed_ledger_bytes () in
      let journal = Filename.concat dir "run.ckpt" in
      let payloads = journal_payloads journal_cks in
      let whole = String.concat "" payloads in
      (* Torn ledger tail, corrupt primary generation, torn journal
         append, stray tmp. *)
      write_file ledger (String.sub full 0 (String.length full - 33));
      write_file journal (whole ^ String.sub (List.nth payloads 1) 0 40);
      flip_bit_in_file ckpt 123;
      Out_channel.with_open_bin (ckpt ^ ".tmp") (fun oc -> Out_channel.output_string oc "x");
      let before = A.Fsck.scan [ dir ] in
      Alcotest.(check bool) "damage detected" false before.A.Fsck.clean;
      let repair = A.Fsck.scan ~repair:true [ dir ] in
      Alcotest.(check bool) "repair pass ends clean" true repair.A.Fsck.clean;
      Alcotest.(check int) "four repairs applied" 4 repair.A.Fsck.repaired;
      let after = A.Fsck.scan [ dir ] in
      Alcotest.(check bool) "re-scan is clean" true after.A.Fsck.clean;
      (* The repaired ledger is sealed and holds the clean prefix. *)
      (match A.Ledger.load ledger with
      | Ok t -> Alcotest.(check bool) "repaired ledger sealed" true t.A.Ledger.sealed
      | Error e -> Alcotest.fail (A.Ledger.error_to_string e));
      (* The journal is cut back to its newest record, the torn bytes
         kept aside. *)
      Alcotest.(check bool) "journal truncated to its newest record" true
        (read_file journal = whole);
      Alcotest.(check bool) "torn journal kept" true (Sys.file_exists (journal ^ ".bak"));
      (* The pruned primary no longer hides the good generation. *)
      match Checkpoint.load_latest ckpt with
      | Ok (ck, _) -> Alcotest.(check int) "good generation loads" 1 ck.Checkpoint.iterations
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e))

(* ------------------------------------------------------------------ *)
(* Composition: crash recovery under the 10 % fault-rate resume test   *)
(* ------------------------------------------------------------------ *)

let toy_target () =
  let space = ledger_space () in
  Target.make ~name:"toy" ~space ~metric:Metric.throughput (fun ~trial config ->
      ignore trial;
      match config.(0) with
      | Param.Vint x when x > 9 ->
        { Target.value = Error Failure.Runtime_crash; build_s = 10.; boot_s = 1.; run_s = 2.; objectives = [||] }
      | Param.Vint x ->
        let v = 100. -. float_of_int ((x - 7) * (x - 7)) in
        { Target.value = Ok v; build_s = 10.; boot_s = 1.; run_s = 5.; objectives = [||] }
      | _ -> { Target.value = Error (Failure.Other "invalid"); build_s = 0.; boot_s = 0.; run_s = 0.; objectives = [||] })

let frozen_obs () = Obs.Recorder.create ~now:(fun () -> 0.) ()

let faulty_run ?checkpoint_path ?checkpoint_keep ?resume_from ~seed ~iterations () =
  let plan = Faults.create ~rates:(Faults.rates_of_total 0.10) ~seed () in
  let target = Target.with_faults ~plan (toy_target ()) in
  Driver.run ~seed ~obs:(frozen_obs ()) ~resilience:Resilience.default_resilient
    ?checkpoint_path ~checkpoint_every:7 ?checkpoint_keep ?resume_from ~target
    ~algorithm:(Random_search.create ()) ~budget:(Driver.Iterations iterations) ()

let test_resume_from_fallback_generation_reproduces_run () =
  let full = faulty_run ~seed:11 ~iterations:20 () in
  let path = Filename.temp_file "wayfinder" ".ckpt" in
  let resumes_exactly what =
    match Checkpoint.load_latest path with
    | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
    | Ok (ck, notice) ->
      let resumed = faulty_run ~resume_from:ck ~seed:11 ~iterations:20 () in
      Alcotest.(check string) (what ^ ": identical CSV")
        (History.to_csv full.Driver.history)
        (History.to_csv resumed.Driver.history);
      (ck, notice)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".1"; path ^ ".2" ])
    (fun () ->
      (* Kill mid-run: the journal holds records at 7 and 13.  A flipped
         bit in the last state record leaves the one before it. *)
      ignore (faulty_run ~checkpoint_path:path ~checkpoint_keep:3 ~seed:11 ~iterations:13 ());
      let journal = read_file path in
      let last_record =
        let rec find i = if String.sub journal i 6 = "\nseed " then i + 1 else find (i - 1) in
        find (String.length journal - 6)
      in
      flip_bit_in_file path (8 * (last_record + 2));
      let ck, notice = resumes_exactly "flipped last record" in
      Alcotest.(check int) "fell back to the previous record" 7 ck.Checkpoint.iterations;
      (match notice with
      | Some (Checkpoint.Dropped_tail { valid_bytes; _ }) -> (
        match Checkpoint.scan (String.sub journal 0 valid_bytes) with
        | Ok r ->
          Alcotest.(check bool) "the notice ends the valid bytes at that record" true
            (r.Checkpoint.dropped = None && r.Checkpoint.ck.Checkpoint.iterations = 7)
        | Error e -> Alcotest.fail (Checkpoint.error_to_string e))
      | Some n -> Alcotest.failf "unexpected notice: %s" (Checkpoint.notice_to_string n)
      | None -> Alcotest.fail "expected a dropped-tail notice");
      (* Resumed from 13, the run's first save writes its own journal
         whole and rotates the killed one to [path.1]; when the new
         primary holds no valid record, the resume falls back to it. *)
      write_file path journal;
      let killed =
        match Checkpoint.load ~path with
        | Ok ck -> ck
        | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
      in
      ignore
        (faulty_run ~checkpoint_path:path ~checkpoint_keep:3 ~resume_from:killed ~seed:11
           ~iterations:16 ());
      flip_bit_in_file path 200;
      let ck, notice = resumes_exactly "fallback generation" in
      Alcotest.(check int) "the killed run's newest record" 13 ck.Checkpoint.iterations;
      match notice with
      | Some (Checkpoint.Recovered_from_generation { generation = 1; dropped = [ _ ]; _ }) -> ()
      | Some n -> Alcotest.failf "unexpected notice: %s" (Checkpoint.notice_to_string n)
      | None -> Alcotest.fail "expected a recovery notice")

(* A kill can leave half an append behind.  The resume drops it with a
   notice, reproduces the run, and its first save writes the journal
   whole again, without the torn bytes. *)
let test_resume_drops_a_torn_append () =
  let full = faulty_run ~seed:11 ~iterations:20 () in
  let path = Filename.temp_file "wayfinder" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (faulty_run ~checkpoint_path:path ~seed:11 ~iterations:13 ());
      Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path (fun oc ->
          Out_channel.output_string oc "entry 13\t0x1.8p+");
      let ck =
        match Checkpoint.load_latest path with
        | Ok (ck, Some (Checkpoint.Dropped_tail { dropped_bytes = 16; _ })) -> ck
        | Ok (_, notice) ->
          Alcotest.failf "expected a 16-byte dropped tail, got %s"
            (Option.fold ~none:"no notice" ~some:Checkpoint.notice_to_string notice)
        | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
      in
      Alcotest.(check int) "the newest whole record" 13 ck.Checkpoint.iterations;
      let resumed =
        faulty_run ~checkpoint_path:path ~resume_from:ck ~seed:11 ~iterations:20 ()
      in
      Alcotest.(check string) "identical CSV"
        (History.to_csv full.Driver.history)
        (History.to_csv resumed.Driver.history);
      match Checkpoint.scan (read_file path) with
      | Ok r ->
        Alcotest.(check bool) "rewritten without the torn bytes, ending at the run's end" true
          (r.Checkpoint.dropped = None && r.Checkpoint.ck.Checkpoint.iterations = 20)
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e))

(* Each save appends only the rows since the previous one, so twice the
   run writes about twice the checkpoint bytes (rewriting the whole
   history at every save made it about four times). *)
let test_journal_bytes_grow_linearly () =
  let written n =
    let fs = Mem.create () in
    ignore
      (Driver.run ~seed:3 ~obs:(frozen_obs ()) ~checkpoint_path:"g.ckpt"
         ~checkpoint_backend:(Mem.backend fs) ~checkpoint_every:10 ~target:(toy_target ())
         ~algorithm:(Random_search.create ()) ~budget:(Driver.Iterations n) ());
    Mem.cost fs
  in
  let small = written 200 and large = written 400 in
  let ratio = float_of_int large /. float_of_int small in
  if ratio > 2.2 then
    Alcotest.failf "n=400 wrote %d cost units, %.2fx the %d of n=200" large ratio small

(* A periodic checkpoint whose directory vanished fails the run, though
   its publish ran on the writer thread.  The budget is a multiple of
   the cadence, so no synchronous final save fails in its place.  When
   the run is killed instead, the kill wins over the failure its drain
   reports. *)
let test_failed_background_checkpoint_fails_run () =
  let dir = Filename.temp_file "wayfinder_ckpt" "" in
  Sys.remove dir;
  let checkpoint_path = Filename.concat dir "s.ckpt" in
  let run ?interrupt_at engine =
    Sys.mkdir dir 0o755;
    let completions = ref 0 in
    let on_iteration _ =
      incr completions;
      if !completions = 1 then Sys.rmdir dir;
      if Some !completions = interrupt_at then raise Exit
    in
    let target = toy_target () and algorithm = Random_search.create () in
    let budget = Driver.Iterations 18 in
    match
      match engine with
      | `Sequential ->
        Driver.run_sequential ~seed:5 ~on_iteration ~checkpoint_path ~checkpoint_every:3 ~target
          ~algorithm ~budget ()
      | `Workers workers ->
        Driver.run ~seed:5 ~workers ~on_iteration ~checkpoint_path ~checkpoint_every:3 ~target
          ~algorithm ~budget ()
    with
    | _ -> Alcotest.fail "the run hid the failed checkpoint"
    | exception Durable.Io_error e -> `Failed e.Durable.path
    | exception Exit -> `Killed
  in
  List.iter
    (fun engine ->
      (match run engine with
      | `Failed path ->
        Alcotest.(check bool) "the error names the checkpoint" true
          (contains_sub path checkpoint_path)
      | `Killed -> Alcotest.fail "no kill was asked for");
      match run ~interrupt_at:4 engine with
      | `Killed -> ()
      | `Failed _ -> Alcotest.fail "the drain's failure replaced the kill")
    [ `Sequential; `Workers 1; `Workers 4 ]

(* ------------------------------------------------------------------ *)
(* Envelope: the line codec checkpoints and registry entries share     *)
(* ------------------------------------------------------------------ *)

let all_bytes = String.init 256 Char.chr

let test_envelope_strings () =
  List.iter
    (fun s ->
      let e = Envelope.encode_string s in
      Alcotest.(check string) (Printf.sprintf "%S round-trips" s) s (Envelope.decode_string e);
      Alcotest.(check bool)
        (Printf.sprintf "%S encodes without reserved bytes" s)
        false
        (String.exists (function ' ' | '\t' | '\n' | '\r' -> true | _ -> false) e))
    [ ""; "%"; "100%"; "%%"; "%4"; "%41"; "a b\tc\r\nd"; all_bytes ]

let prop_envelope_strings =
  QCheck2.Test.make ~name:"encode/decode round-trips any string" ~count:300
    QCheck2.Gen.(string_size ~gen:char (int_range 0 64))
    (fun s -> Envelope.decode_string (Envelope.encode_string s) = s)

let test_envelope_floats () =
  let back f =
    match Envelope.float_of_field (Envelope.float_field f) with
    | Ok g -> g
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun f ->
      Alcotest.(check bool) (Printf.sprintf "%h bitwise" f) true
        (Int64.bits_of_float (back f) = Int64.bits_of_float f))
    [ infinity; neg_infinity; -0.; 0.; 5e-324; max_float; 0.1 ];
  (* "%h" prints every NaN as "nan" or "-nan": the text carries no
     payload, so any NaN comes back as a NaN of the same sign. *)
  List.iter
    (fun bits ->
      let f = Int64.float_of_bits bits in
      let g = back f in
      Alcotest.(check bool) (Printf.sprintf "NaN %Lx stays a NaN of its sign" bits) true
        (Float.is_nan g && Float.sign_bit g = Float.sign_bit f))
    [ 0x7FF8000000000001L; 0x7FF0000000000123L; 0xFFF8000000000000L; 0xFFF00000DEADBEEFL ]

(* ------------------------------------------------------------------ *)
(* Mutation fuzz: every reader returns a typed result, never raises     *)
(* ------------------------------------------------------------------ *)

(* A checkpoint (with in-flight tasks), a sealed ledger and a registry
   entry, all from one short DeepTune run under faults. *)
let fuzz_artifacts =
  lazy
    (let space = ledger_space () in
     let ckpt = Filename.temp_file "wayfinder" ".ckpt" in
     let ledger = Filename.temp_file "wayfinder" ".jsonl" in
     let dt = D.Deeptune.create ~seed:3 space in
     let w =
       A.Ledger.create_writer ~seed:3 ~algo:"deeptune" ~space ~metric:Metric.throughput ledger
     in
     let plan = Faults.create ~rates:(Faults.rates_of_total 0.2) ~seed:3 () in
     let result =
       Driver.run ~seed:3 ~obs:(frozen_obs ()) ~resilience:Resilience.default_resilient
         ~checkpoint_path:ckpt ~checkpoint_every:5 ~on_record:(A.Ledger.record w) ~workers:2
         ~target:(Target.with_faults ~plan (toy_target ()))
         ~algorithm:(D.Deeptune.algorithm dt) ~budget:(Driver.Iterations 12) ()
     in
     A.Ledger.close_writer w;
     let take path =
       let s = read_file path in
       Sys.remove path;
       s
     in
     let transfer = D.Deeptune.export dt in
     let entry =
       { Registry.fp = Registry.fingerprint ~app:"toy app" space;
         meta =
           { Registry.algo = "deeptune";
             seed = 3;
             samples = result.Driver.iterations;
             metric_name = "throughput";
             unit_name = "req/s";
             maximize = true;
             objectives = [ "throughput" ];
             best_value = Option.bind result.Driver.best (fun e -> e.History.value);
             mean_value = Float.nan;
             crash_rate = 0.25;
             ledger = Some "runs/run 1.jsonl" };
         model_kind = "dtm";
         model = D.Dtm.snapshot_to_floats transfer.D.Deeptune.model;
         incumbents = transfer.D.Deeptune.incumbents;
         sealed = true }
     in
     [| take ckpt; take ledger; Registry.to_string entry |])

let test_envelope_trailer_rule () =
  let body = "wayfinder-test 1\nend\n" in
  let sealed = Envelope.seal body in
  Alcotest.(check bool) "seal then unseal" true (Envelope.unseal sealed = Envelope.Sealed body);
  Alcotest.(check bool) "no trailer" true (Envelope.unseal body = Envelope.No_trailer);
  (match Envelope.unseal (body ^ "crc 00000000\n") with
  | Envelope.Corrupt _ -> ()
  | Envelope.Sealed _ | Envelope.No_trailer -> Alcotest.fail "a wrong crc must be corrupt");
  Alcotest.(check string) "empty config" "." (Envelope.config_field [||]);
  Alcotest.(check bool) "\".\" decodes to the empty config" true
    (Envelope.config_of_field "." = Ok [||]);
  (* Where the old checkpoint and registry readers differed (any number
     of trailing newlines vs exactly one): the trailer is the last line,
     ended by exactly one newline.  A second newline, or none, leaves no
     trailer — and both formats then refuse the text. *)
  let drop_last s = String.sub s 0 (String.length s - 1) in
  Alcotest.(check bool) "extra newline" true (Envelope.unseal (sealed ^ "\n") = Envelope.No_trailer);
  Alcotest.(check bool) "missing newline" true
    (Envelope.unseal (drop_last sealed) = Envelope.No_trailer);
  let artifacts = Lazy.force fuzz_artifacts in
  let entry = artifacts.(2) in
  Alcotest.(check bool) "registry entry plus a newline refused" false
    (Result.is_ok (Registry.of_string (entry ^ "\n")));
  Alcotest.(check bool) "registry entry without its last newline refused" false
    (Result.is_ok (Registry.of_string (drop_last entry)));
  (* A checkpoint journal is read up to its newest record whose crc line
     is whole: an extra newline is one dropped byte after that record,
     and a last crc line without its newline leaves the record before. *)
  let journal = artifacts.(0) in
  match
    ( Checkpoint.scan journal,
      Checkpoint.scan (journal ^ "\n"),
      Checkpoint.scan (drop_last journal) )
  with
  | Ok whole, Ok plus, Ok torn ->
    Alcotest.(check bool) "the journal ends on its newest record" true
      (whole.Checkpoint.dropped = None && whole.Checkpoint.records >= 2);
    Alcotest.(check bool) "plus a newline: the same state, one byte dropped" true
      (compare plus.Checkpoint.ck whole.Checkpoint.ck = 0
      && match plus.Checkpoint.dropped with Some (1, _) -> true | Some _ | None -> false);
    Alcotest.(check int) "without its last newline: the record before" (whole.Checkpoint.records - 1)
      torn.Checkpoint.records;
    Alcotest.(check bool) "an older state" true
      (torn.Checkpoint.ck.Checkpoint.iterations < whole.Checkpoint.ck.Checkpoint.iterations)
  | _ -> Alcotest.fail "the journal artifact did not scan"

let mutate s (op, a, b) =
  let n = String.length s in
  let lines = String.split_on_char '\n' s in
  let k = List.length lines in
  let i = a mod k and j = b mod k in
  let relines f = String.concat "\n" (f lines) in
  match op with
  | 0 -> String.sub s 0 (a mod (n + 1))
  | 1 ->
    let bytes = Bytes.of_string s in
    let at = a mod n in
    Bytes.set bytes at (Char.chr (Char.code s.[at] lxor (1 lsl (b mod 8))));
    Bytes.to_string bytes
  | 2 -> relines (fun ls -> List.concat (List.mapi (fun x l -> if x = i then [ l; l ] else [ l ]) ls))
  | 3 -> relines (List.filteri (fun x _ -> x <> i))
  | 4 ->
    let nth = List.nth lines in
    relines (List.mapi (fun x l -> if x = i then nth j else if x = j then nth i else l))
  | _ ->
    let at = a mod (n + 1) in
    String.sub s 0 at ^ (if b mod 2 = 0 then "\r" else "%") ^ String.sub s at (n - at)

(* Print, parse back, compare — [compare] so NaN fields equal themselves. *)
let reencodes parse print v =
  match parse (print v) with Ok v' -> compare v v' = 0 | Error _ -> false

(* The file grows by appends, as a live ledger does: rewriting it would
   make every case pay for freeing the old file's blocks. *)
let tail_in_two_chunks s cut =
  let path = Filename.temp_file "wayfinder" ".jsonl" in
  let append data =
    Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path (fun oc ->
        Out_channel.output_string oc data)
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let tail = M.Tail.create path in
      append (String.sub s 0 cut);
      ignore (M.Tail.step tail : (M.Tail.step, A.Ledger.error) result);
      append (String.sub s cut (String.length s - cut));
      ignore (M.Tail.step tail : (M.Tail.step, A.Ledger.error) result))

let prop_mutation_fuzz =
  QCheck2.Test.make ~count:300
    ~name:"mutated artifacts read as a typed error or an exact round-trip, never raise"
    QCheck2.Gen.(tup4 (int_bound 2) (int_bound 5) (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (which, op, a, b) ->
      let s = mutate (Lazy.force fuzz_artifacts).(which) (op, a, b) in
      tail_in_two_chunks s (b mod (String.length s + 1));
      (match Checkpoint.of_string s with
      | Error _ -> true
      | Ok ck -> reencodes Checkpoint.of_string Checkpoint.to_string ck)
      && (match Registry.of_string s with
         | Error _ -> true
         | Ok e -> reencodes Registry.of_string Registry.to_string { e with Registry.sealed = true })
      && (match A.Ledger.of_string s with
         | Error _ -> true
         | Ok l -> reencodes A.Ledger.of_string A.Ledger.to_string l)
      &&
      match A.Ledger.salvage_string s with
      | Error _ -> true
      | Ok r -> reencodes A.Ledger.of_string A.Ledger.to_string r.A.Ledger.ledger)

let () =
  Alcotest.run "durable"
    [ ( "crc32",
        [ Alcotest.test_case "known answers" `Quick test_crc_known_answers;
          QCheck_alcotest.to_alcotest prop_crc_streaming;
          QCheck_alcotest.to_alcotest prop_crc_matches_oracle ] );
      ( "atomic-write",
        [ Alcotest.test_case "publishes durably" `Quick test_atomic_write_publishes;
          Alcotest.test_case "crash matrix: old or new, never torn" `Quick
            test_atomic_write_crash_matrix ] );
      ( "checkpoint",
        [ Alcotest.test_case "crash matrix with rotation" `Quick
            (test_checkpoint_save_crash_matrix ?save:None);
          Alcotest.test_case "generation rotation and fallback" `Quick
            test_checkpoint_generation_rotation;
          QCheck_alcotest.to_alcotest prop_checkpoint_crash_matrix;
          Alcotest.test_case "crash matrix through the background publisher" `Quick
            (test_checkpoint_save_crash_matrix ~save:save_in_background) ] );
      ( "journal",
        [ Alcotest.test_case "crash matrix: first save and two appends" `Quick
            test_journal_crash_matrix;
          Alcotest.test_case "bytes written grow linearly with the run" `Quick
            test_journal_bytes_grow_linearly ] );
      ( "publisher",
        [ QCheck_alcotest.to_alcotest prop_publisher_newest_wins;
          Alcotest.test_case "a failed publish is reported, no staging file left" `Quick
            test_publisher_reports_failure;
          QCheck_alcotest.to_alcotest prop_publisher_appends_in_order;
          Alcotest.test_case "a failed append fsync is reported" `Quick
            test_publisher_append_reports_failure ] );
      ( "ledger",
        [ Alcotest.test_case "seal roundtrip" `Quick test_ledger_seal_roundtrip;
          Alcotest.test_case "torn-tail matrix: salvage at every cut" `Quick
            test_ledger_torn_tail_matrix;
          Alcotest.test_case "typed errors with positions" `Quick test_ledger_typed_errors ] );
      ( "fsck",
        [ Alcotest.test_case "detects 100% of seeded corruption" `Quick
            test_fsck_detects_all_seeded_corruption;
          Alcotest.test_case "repair heals the tree" `Quick test_fsck_repair_heals_the_tree ] );
      ( "envelope",
        [ Alcotest.test_case "strings round-trip" `Quick test_envelope_strings;
          QCheck_alcotest.to_alcotest prop_envelope_strings;
          Alcotest.test_case "hex floats" `Quick test_envelope_floats;
          Alcotest.test_case "fields and the trailer rule" `Quick test_envelope_trailer_rule ] );
      ("fuzz", [ QCheck_alcotest.to_alcotest prop_mutation_fuzz ]);
      ( "composition",
        [ Alcotest.test_case "resume from fallback generation under 10% faults" `Quick
            test_resume_from_fallback_generation_reproduces_run;
          Alcotest.test_case "a resume drops a torn append and rewrites the journal" `Quick
            test_resume_drops_a_torn_append;
          Alcotest.test_case "a failed background checkpoint fails the run" `Quick
            test_failed_background_checkpoint_fails_run ] ) ]
