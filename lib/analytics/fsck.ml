module Checkpoint = Wayfinder_platform.Checkpoint
module Registry = Wayfinder_platform.Registry
module Durable = Wayfinder_platform.Durable
module Obs = Wayfinder_obs

type kind = Checkpoint_gen | Ledger | Jsonl_stream | Json_report | Model_entry | Tmp

let kind_to_string = function
  | Checkpoint_gen -> "checkpoint"
  | Ledger -> "ledger"
  | Jsonl_stream -> "jsonl"
  | Json_report -> "report"
  | Model_entry -> "model"
  | Tmp -> "tmp"

type status = Valid | Unsealed | Corrupt | Stray

let status_to_string = function
  | Valid -> "valid"
  | Unsealed -> "unsealed"
  | Corrupt -> "corrupt"
  | Stray -> "stray"

type finding = {
  path : string;
  kind : kind;
  status : status;
  detail : string;
  action : string option;
}

type report = {
  findings : finding list;
  scanned : int;
  valid : int;
  unsealed : int;
  corrupt : int;
  stray : int;
  repaired : int;
  clean : bool;
}

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

(* "search.ckpt" or a rotated generation "search.ckpt.3"; likewise for
   registry entries ("<key>.model", "<key>.model.3"). *)
let is_generation_name suffix base =
  Filename.check_suffix base suffix
  ||
  let stem = Filename.remove_extension base in
  let ext = Filename.extension base in
  Filename.check_suffix stem suffix
  && String.length ext > 1
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub ext 1 (String.length ext - 1))

let is_checkpoint_name base = is_generation_name ".ckpt" base
let is_model_name base = is_generation_name ".model" base

let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

(* The kind tag of a JSONL schema header line, if that is what this is. *)
let sniff_stream_kind content =
  match Json.parse (first_line content) with
  | Error _ -> None
  | Ok j ->
    if Json.member "wayfinder_schema" j = None then None
    else Some (Option.value ~default:"" (Option.bind (Json.member "kind" j) Json.to_str))

let classify path content =
  let base = Filename.basename path in
  (* [.bak] files are our own quarantine output (damaged originals kept
     for post-mortem) — re-flagging them would make a repaired tree
     permanently dirty. *)
  if Filename.check_suffix base ".bak" then None
  else if Filename.check_suffix base ".tmp" then Some Tmp
  else if is_checkpoint_name base then Some Checkpoint_gen
  else if is_model_name base then Some Model_entry
  else if Filename.check_suffix base ".jsonl" then
    Some (match sniff_stream_kind content with Some "ledger" -> Ledger | _ -> Jsonl_stream)
  else if Filename.check_suffix base ".json" then Some Json_report
  else if
    (* Name gives no hint — sniff the content. *)
    String.length content >= 21 && String.sub content 0 21 = "wayfinder-checkpoint "
  then Some Checkpoint_gen
  else if String.length content >= 16 && String.sub content 0 16 = "wayfinder-model "
  then Some Model_entry
  else
    match sniff_stream_kind content with
    | Some "ledger" -> Some Ledger
    | Some _ -> Some Jsonl_stream
    | None -> None

(* ------------------------------------------------------------------ *)
(* Per-kind validation                                                 *)
(* ------------------------------------------------------------------ *)

(* A journal with bytes after its newest valid state record is Corrupt
   but repairable: truncating it to that record loses nothing a loader
   would have used. *)
let check_checkpoint content =
  match Checkpoint.scan content with
  | Ok r ->
    let ck = r.Checkpoint.ck in
    let summary =
      Printf.sprintf "%d iterations, %d in flight, %d state records" ck.Checkpoint.iterations
        (List.length ck.Checkpoint.inflight) r.Checkpoint.records
    in
    (match r.Checkpoint.dropped with
    | None -> (Valid, summary)
    | Some (bytes, e) ->
      ( Corrupt,
        Printf.sprintf "%s; %d bytes after the newest valid record: %s" summary bytes
          (Checkpoint.error_to_string e) ))
  | Error e -> (Corrupt, Checkpoint.error_to_string e)

let check_ledger content =
  match Ledger.of_string content with
  | Ok t when t.Ledger.sealed ->
    (Valid, Printf.sprintf "sealed, %d rows" (List.length t.Ledger.rows))
  | Ok t ->
    (Unsealed, Printf.sprintf "%d rows, no fin seal (writer not closed cleanly)"
       (List.length t.Ledger.rows))
  | Error e ->
    let diag =
      match Ledger.salvage_string content with
      | Ok r ->
        Printf.sprintf "; salvageable: %d clean rows, %d dropped lines"
          r.Ledger.clean_prefix_rows (List.length r.Ledger.dropped)
      | Error _ -> "; unsalvageable (header or meta damage)"
    in
    (Corrupt, Ledger.error_to_string e ^ diag)

(* A schema-headed JSONL stream of another kind (e.g. a trace): every
   line must be JSON, starting with the schema header itself — a stream
   truncated into (or to nothing of) its header is damage, not an empty
   file. *)
let check_jsonl content =
  if sniff_stream_kind content = None then
    (Corrupt, "missing or damaged schema header line")
  else
  let lines = String.split_on_char '\n' content in
  let rec go lineno offset n = function
    | [] -> (Valid, Printf.sprintf "%d records" n)
    | line :: rest ->
      if String.trim line = "" then go (lineno + 1) (offset + String.length line + 1) n rest
      else (
        match Json.parse line with
        | Ok _ -> go (lineno + 1) (offset + String.length line + 1) (n + 1) rest
        | Error msg ->
          (Corrupt, Printf.sprintf "line %d (byte %d): %s" lineno offset msg))
  in
  go 1 0 0 lines

let check_report content =
  match Json.parse content with
  | Ok _ -> (Valid, Printf.sprintf "%d bytes of well-formed JSON" (String.length content))
  | Error msg -> (Corrupt, msg)

let check_model content =
  match Registry.of_string content with
  | Ok e when e.Registry.sealed ->
    (Valid,
     Printf.sprintf "sealed, %s on %s, %d samples, %d model floats"
       e.Registry.meta.Registry.algo e.Registry.fp.Registry.app
       e.Registry.meta.Registry.samples (Array.length e.Registry.model))
  | Ok e ->
    (Unsealed,
     Printf.sprintf "%s on %s parses but carries no crc seal (torn trailer?)"
       e.Registry.meta.Registry.algo e.Registry.fp.Registry.app)
  | Error e -> (Corrupt, Registry.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Repair                                                              *)
(* ------------------------------------------------------------------ *)

let quarantine path =
  let bak = path ^ ".bak" in
  Sys.rename path bak;
  bak

let repair_finding ~content path kind status =
  match (kind, status) with
  | Tmp, Stray ->
    Sys.remove path;
    Some "removed stray staging file"
  | Checkpoint_gen, Corrupt -> (
    match Checkpoint.scan content with
    | Ok r ->
      let bak = quarantine path in
      Durable.atomic_write_exn ~path (String.sub content 0 r.Checkpoint.valid_bytes);
      Some
        (Printf.sprintf "truncated to the newest valid record (%d state records; original at %s)"
           r.Checkpoint.records bak)
    | Error _ ->
      let bak = quarantine path in
      Some (Printf.sprintf "pruned corrupt generation (kept at %s)" bak))
  | Model_entry, Corrupt ->
    (* Like a corrupt checkpoint generation: quarantine so registry
       lookups skip it, keep the bytes for post-mortem. *)
    let bak = quarantine path in
    Some (Printf.sprintf "quarantined corrupt model entry (kept at %s)" bak)
  | Ledger, Corrupt -> (
    match Ledger.repair_string content with
    | Ok (fixed, r) ->
      let bak = quarantine path in
      Durable.atomic_write_exn ~path fixed;
      Some
        (Printf.sprintf "truncated to clean prefix (%d rows, %d lines dropped; original at %s)"
           r.Ledger.clean_prefix_rows (List.length r.Ledger.dropped) bak)
    | Error _ ->
      let bak = quarantine path in
      Some (Printf.sprintf "quarantined unsalvageable ledger (kept at %s)" bak))
  | _ -> None (* Reports and foreign streams are flagged, never modified. *)

(* ------------------------------------------------------------------ *)
(* The scan                                                            *)
(* ------------------------------------------------------------------ *)

let rec walk acc path =
  if Sys.file_exists path && Sys.is_directory path then
    let entries = Sys.readdir path in
    Array.sort compare entries;
    Array.fold_left (fun acc name -> walk acc (Filename.concat path name)) acc entries
  else if Sys.file_exists path then path :: acc
  else acc

let check_file ~repair path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
    Some { path; kind = Json_report; status = Corrupt; detail = "unreadable: " ^ msg; action = None }
  | content -> (
    match classify path content with
    | None -> None
    | Some kind ->
      let status, detail =
        match kind with
        | Tmp -> (Stray, "staging file from an interrupted atomic write")
        | Checkpoint_gen -> check_checkpoint content
        | Ledger -> check_ledger content
        | Jsonl_stream -> check_jsonl content
        | Json_report -> check_report content
        | Model_entry -> check_model content
      in
      let action =
        if repair then (
          try repair_finding ~content path kind status
          with Sys_error msg | Durable.Io_error { reason = msg; _ } ->
            Some ("repair failed: " ^ msg))
      else None
      in
      Some { path; kind; status; detail; action })

let is_repaired f =
  match f.action with
  | Some a -> not (String.length a >= 13 && String.sub a 0 13 = "repair failed")
  | None -> false

let scan ?(repair = false) paths =
  let files = List.rev (List.fold_left walk [] paths) in
  let findings = List.filter_map (check_file ~repair) files in
  let count st = List.length (List.filter (fun f -> f.status = st) findings) in
  let repaired = List.length (List.filter is_repaired findings) in
  let unrepaired_corrupt =
    List.filter (fun f -> f.status = Corrupt && not (is_repaired f)) findings
  in
  { findings;
    scanned = List.length findings;
    valid = count Valid;
    unsealed = count Unsealed;
    corrupt = count Corrupt;
    stray = count Stray;
    repaired;
    clean = unrepaired_corrupt = [] }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let finding_to_string f =
  Printf.sprintf "%-10s %-8s %s — %s%s" (kind_to_string f.kind) (status_to_string f.status)
    f.path f.detail
    (match f.action with Some a -> " [" ^ a ^ "]" | None -> "")

let finding_json f =
  Json.Obj
    [ ("path", Json.Str f.path);
      ("kind", Json.Str (kind_to_string f.kind));
      ("status", Json.Str (status_to_string f.status));
      ("detail", Json.Str f.detail);
      ("action", match f.action with Some a -> Json.Str a | None -> Json.Null) ]

let report_json r =
  Json.Obj
    [ ("scanned", Json.Num (float_of_int r.scanned));
      ("valid", Json.Num (float_of_int r.valid));
      ("unsealed", Json.Num (float_of_int r.unsealed));
      ("corrupt", Json.Num (float_of_int r.corrupt));
      ("stray", Json.Num (float_of_int r.stray));
      ("repaired", Json.Num (float_of_int r.repaired));
      ("clean", Json.Bool r.clean);
      ("findings", Json.List (List.map finding_json r.findings)) ]
