module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param

type inflight = {
  index : int;
  slot : int;
  start_seconds : float;
  entry : History.entry;
}

type t = {
  seed : int;
  rng_state : int64;
  clock_seconds : float;
  budget_start_seconds : float;
  iterations : int;
  workers : int;
  consecutive_invalid : int;
  cache_capacity : int;
  cache : (string * Image_cache.entry) list;
  strikes : (string * int) list;
  quarantined : string list;
  entries : History.entry list;
  inflight : inflight list;
  pareto : (int * float array) list;
  trace_cursor : int option;
}

type error =
  | Unsupported_version of { found : int; expected : int }
  | Malformed of string

let error_to_string = function
  | Unsupported_version { found; expected } ->
    Printf.sprintf "unsupported checkpoint version %d (expected %d)" found expected
  | Malformed msg -> msg

(* v4: strike/quarantine lines are keyed by the canonical config key
   (comma-joined value tokens) instead of the truncated polymorphic hash,
   which conflated configurations differing past the ~10th parameter.
   v5: entry lines carry the objective vector (9th field), and the body
   persists the Pareto archive and the scenario trace cursor, so a
   resumed multi-objective trace run continues bitwise where it died.
   v6: the file is an append-only journal of entry lines and state
   records, each record sealed by the CRC of every byte before it. *)
let version = 6

(* ------------------------------------------------------------------ *)
(* Field encodings                                                     *)
(* ------------------------------------------------------------------ *)

(* The line codecs are {!Envelope}'s, shared with registry entries; hex
   float fields make a resumed virtual clock bit-identical to the
   interrupted one. *)
let float_field = Envelope.float_field
let encode_string = Envelope.encode_string
let decode_string = Envelope.decode_string
let field r = Result.map_error (fun msg -> Malformed msg) r
let float_of_field s = field (Envelope.float_of_field s)

(* Objective vectors are comma-joined %h floats; "." is the empty vector
   (mirroring the empty-config marker) and "-" in an entry line means no
   vector at all. *)
let vec_field v =
  if Array.length v = 0 then "."
  else String.concat "," (Array.to_list (Array.map float_field v))

let vec_of_field s =
  if s = "." then Ok [||]
  else
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | tok :: rest -> (
        match float_of_field tok with Ok v -> go (v :: acc) rest | Error e -> Error e)
    in
    go [] (String.split_on_char ',' s)

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let entry_line (e : History.entry) =
  String.concat "\t"
    [ string_of_int e.History.index;
      (match e.History.value with Some v -> float_field v | None -> "-");
      (match e.History.failure with Some f -> encode_string (Failure.to_string f) | None -> "-");
      float_field e.History.at_seconds;
      float_field e.History.eval_seconds;
      (if e.History.built then "1" else "0");
      float_field e.History.decide_seconds;
      Envelope.config_field e.History.config;
      (match e.History.objectives with Some v -> vec_field v | None -> "-") ]

let add_entries buf entries =
  List.iter
    (fun e ->
      Buffer.add_string buf "entry ";
      Buffer.add_string buf (entry_line e);
      Buffer.add_char buf '\n')
    entries

(* Everything but the entries, closed by "end": the lines a state record
   holds before its crc line. *)
let add_state buf t =
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  line "seed %d" t.seed;
  line "rng %Lx" t.rng_state;
  line "clock %s" (float_field t.clock_seconds);
  line "budget_start %s" (float_field t.budget_start_seconds);
  line "iterations %d" t.iterations;
  line "workers %d" t.workers;
  line "consecutive_invalid %d" t.consecutive_invalid;
  line "cache_capacity %d" t.cache_capacity;
  (* Most-recently-used first, exactly [Image_cache.to_alist]: the reader
     hands the list straight back to [Image_cache.of_alist], so a resumed
     run evicts in the same order the killed run would have. *)
  List.iter
    (fun (key, e) ->
      match e.Image_cache.status with
      | Image_cache.Built -> line "cached built %d %s" e.Image_cache.origin (encode_string key)
      | Image_cache.Build_failed f ->
        line "cached failed %d %s %s" e.Image_cache.origin
          (encode_string (Failure.to_string f))
          (encode_string key))
    t.cache;
  List.iter (fun (key, n) -> line "strike %s %d" (encode_string key) n) t.strikes;
  List.iter (fun key -> line "quarantined %s" (encode_string key)) t.quarantined;
  List.iter (fun (i, v) -> line "pareto %d %s" i (vec_field v)) t.pareto;
  (match t.trace_cursor with
  | Some c -> line "trace_cursor %d" c
  | None -> ());
  List.iter
    (fun i ->
      line "inflight %s"
        (String.concat "\t"
           [ string_of_int i.slot; float_field i.start_seconds; entry_line i.entry ]))
    t.inflight;
  line "end"

(* [bytes] is the length of the journal's newest record and [added] the
   entries it added: the next record sizes its buffer from them. *)
type journal = { crc : Crc32.t; entries : int; bytes : int; added : int }

let journal_entries j = j.entries

(* "crc " and eight hex digits and a newline. *)
let crc_line_length = 13

(* [prefix], [t]'s entry lines and its state record, sealed onto a
   journal whose bytes so far have the running CRC [crc]: the crc line
   covers every byte of the file before it, so one record vouches for
   every entry before it too.  The crc line is written into the same
   buffer, over a placeholder, so the record is copied out once. *)
let record crc ~size ~entries prefix (t : t) =
  let buf = Buffer.create size in
  Buffer.add_string buf prefix;
  add_entries buf t.entries;
  add_state buf t;
  let body = Buffer.length buf in
  Buffer.add_string buf "crc 00000000\n";
  let b = Buffer.to_bytes buf in
  let crc = Crc32.update_bytes crc b ~pos:0 ~len:body in
  Bytes.blit_string (Crc32.to_hex (Crc32.finish crc)) 0 b (body + 4) 8;
  let crc = Crc32.update_bytes crc b ~pos:body ~len:crc_line_length in
  ( Bytes.unsafe_to_string b,
    { crc; entries; bytes = Bytes.length b; added = List.length t.entries } )

let start (t : t) =
  record Crc32.init ~size:4096 ~entries:(List.length t.entries)
    (Printf.sprintf "wayfinder-checkpoint %d\n" version)
    t

let extend j (t : t) =
  let added = List.length t.entries in
  let entries = j.entries + added in
  if t.iterations <> entries then
    invalid_arg "Checkpoint.extend: iterations must count the journal's entries plus the new ones";
  (* The newest record's bytes per entry, its state counted as one
     more, with an eighth to spare. *)
  let size = j.bytes / (j.added + 1) * (added + 1) in
  record j.crc ~size:(size + (size / 8)) ~entries "" t

let to_string t = fst (start t)

let generation_path = Durable.generation_path
let max_generations = 64

let save ?backend ?keep ~path t =
  (* The staged-write + rotation protocol lives in Durable and is shared
     with registry entries; the crash matrix in test_durable exercises it
     through this entry point. *)
  try Durable.atomic_publish ?backend ?keep ~path (to_string t)
  with Invalid_argument _ -> invalid_arg "Checkpoint.save: keep must be >= 1"

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let parse_entry rest =
  match String.split_on_char '\t' rest with
  | [ index; value; failure; at; eval; built; decide; config; objectives ] ->
    let* index =
      match int_of_string_opt index with
      | Some i -> Ok i
      | None -> Error (Malformed "bad entry index")
    in
    let* value =
      if value = "-" then Ok None
      else
        let* v = float_of_field value in
        Ok (Some v)
    in
    let failure =
      if failure = "-" then None else Some (Failure.of_string (decode_string failure))
    in
    let* at_seconds = float_of_field at in
    let* eval_seconds = float_of_field eval in
    let* built =
      match built with
      | "1" -> Ok true
      | "0" -> Ok false
      | _ -> Error (Malformed "bad entry built flag")
    in
    let* decide_seconds = float_of_field decide in
    let* config = field (Envelope.config_of_field config) in
    let* objectives =
      if objectives = "-" then Ok None
      else
        let* v = vec_of_field objectives in
        Ok (Some v)
    in
    Ok
      { History.index;
        config;
        value;
        failure;
        at_seconds;
        eval_seconds;
        built;
        decide_seconds;
        objectives }
  | _ -> Error (Malformed "bad entry field count")

let parse_inflight rest =
  match String.split_on_char '\t' rest with
  | slot :: start :: entry_fields when List.length entry_fields = 9 ->
    let* slot =
      match int_of_string_opt slot with
      | Some i when i >= 0 -> Ok i
      | Some _ | None -> Error (Malformed "bad inflight slot")
    in
    let* start_seconds = float_of_field start in
    let* entry = parse_entry (String.concat "\t" entry_fields) in
    Ok { index = entry.History.index; slot; start_seconds; entry }
  | _ -> Error (Malformed "bad inflight field count")

(* One state record's lines (without "end"), checked as a whole; its
   entries are the journal's and are attached by the caller. *)
let parse_state lines =
  let seed = ref None
  and rng_state = ref None
  and clock = ref None
  and budget_start = ref None
  and iterations = ref None
  and workers = ref None
  and consecutive_invalid = ref None
  and cache_capacity = ref None
  and cache = ref []
  and strikes = ref []
  and quarantined = ref []
  and inflight = ref []
  and pareto = ref []
  and trace_cursor = ref None in
  let parse_line line =
    let key, rest = Envelope.split_tag line in
    let int_ref r =
      match int_of_string_opt rest with
      | Some v ->
        r := Some v;
        Ok ()
      | None -> Error (Malformed (Printf.sprintf "bad %s field" key))
    in
    match key with
    | "seed" -> int_ref seed
    | "rng" -> (
      match Int64.of_string_opt ("0x" ^ rest) with
      | Some v ->
        rng_state := Some v;
        Ok ()
      | None -> Error (Malformed "bad rng field"))
    | "clock" ->
      let* v = float_of_field rest in
      clock := Some v;
      Ok ()
    | "budget_start" ->
      let* v = float_of_field rest in
      budget_start := Some v;
      Ok ()
    | "iterations" -> int_ref iterations
    | "workers" -> int_ref workers
    | "consecutive_invalid" -> int_ref consecutive_invalid
    | "cache_capacity" -> int_ref cache_capacity
    | "cached" -> (
      let entry origin status key =
        match int_of_string_opt origin with
        | Some origin when origin >= 0 ->
          cache := (decode_string key, { Image_cache.status; origin }) :: !cache;
          Ok ()
        | Some _ | None -> Error (Malformed "bad cached origin")
      in
      match String.split_on_char ' ' rest with
      | [ "built"; origin; key ] -> entry origin Image_cache.Built key
      | [ "failed"; origin; failure; key ] ->
        entry origin (Image_cache.Build_failed (Failure.of_string (decode_string failure))) key
      | _ -> Error (Malformed "bad cached field"))
    | "strike" -> (
      match String.split_on_char ' ' rest with
      | [ k; n ] -> (
        match int_of_string_opt n with
        | Some n ->
          strikes := (decode_string k, n) :: !strikes;
          Ok ()
        | None -> Error (Malformed "bad strike field"))
      | _ -> Error (Malformed "bad strike field"))
    | "quarantined" ->
      quarantined := decode_string rest :: !quarantined;
      Ok ()
    | "inflight" ->
      let* i = parse_inflight rest in
      inflight := i :: !inflight;
      Ok ()
    | "pareto" -> (
      match String.split_on_char ' ' rest with
      | [ idx; vec ] -> (
        match int_of_string_opt idx with
        | Some idx ->
          let* v = vec_of_field vec in
          pareto := (idx, v) :: !pareto;
          Ok ()
        | None -> Error (Malformed "bad pareto index"))
      | _ -> Error (Malformed "bad pareto field"))
    | "trace_cursor" -> (
      match int_of_string_opt rest with
      | Some c when c >= 0 ->
        trace_cursor := Some c;
        Ok ()
      | Some _ -> Error (Malformed "negative trace_cursor field")
      | None -> Error (Malformed "bad trace_cursor field"))
    | other -> Error (Malformed ("unknown checkpoint field " ^ other))
  in
  let rec consume = function
    | [] -> Ok ()
    | line :: rest ->
      let* () = parse_line line in
      consume rest
  in
  let* () = consume lines in
  let require name = function
    | Some v -> Ok v
    | None -> Error (Malformed ("missing " ^ name))
  in
  let* seed = require "seed" !seed in
  let* rng_state = require "rng" !rng_state in
  let* clock_seconds = require "clock" !clock in
  let* budget_start_seconds = require "budget_start" !budget_start in
  let* iterations = require "iterations" !iterations in
  let* workers = require "workers" !workers in
  let* consecutive_invalid = require "consecutive_invalid" !consecutive_invalid in
  let* cache_capacity = require "cache_capacity" !cache_capacity in
  let inflight = List.rev !inflight in
  let cache = List.rev !cache in
  let* () = if workers >= 1 then Ok () else Error (Malformed "bad workers field") in
  let* () =
    if cache_capacity >= 1 then Ok () else Error (Malformed "bad cache_capacity field")
  in
  let* () =
    if List.length cache <= cache_capacity then Ok ()
    else Error (Malformed "cached entries exceed cache_capacity")
  in
  let* () =
    let keys = List.map fst cache in
    if List.length (List.sort_uniq String.compare keys) = List.length keys then Ok ()
    else Error (Malformed "duplicate cached key")
  in
  let* () =
    if List.for_all (fun i -> i.slot < workers) inflight then Ok ()
    else Error (Malformed "inflight slot out of range")
  in
  Ok
    { seed;
      rng_state;
      clock_seconds;
      budget_start_seconds;
      iterations;
      workers;
      consecutive_invalid;
      cache_capacity;
      cache;
      strikes = List.rev !strikes;
      quarantined = List.rev !quarantined;
      entries = [];
      inflight;
      pareto = List.rev !pareto;
      trace_cursor = !trace_cursor }

type scan = { ck : t; records : int; valid_bytes : int; dropped : (int * error) option }

(* One pass over the lines with the running CRC.  Entry lines accumulate;
   the lines of a state record are kept until its crc line, which must
   match the CRC of every byte before it.  The first line that breaks the
   grammar, or a crc line that does not match, ends the scan: no later
   record could verify, since each one's CRC covers the broken bytes. *)
let scan s =
  let n = String.length s in
  let header_end = Option.value (String.index_opt s '\n') ~default:n in
  (* The version check comes first, so files of other versions are
     rejected with the typed [Unsupported_version] whatever follows. *)
  let* () =
    match String.split_on_char ' ' (String.sub s 0 header_end) with
    | [ "wayfinder-checkpoint"; v ] -> (
      match int_of_string_opt v with
      | Some found when found = version -> Ok ()
      | Some found -> Error (Unsupported_version { found; expected = version })
      | None -> Error (Malformed ("bad checkpoint version " ^ v)))
    | _ -> Error (Malformed (if n = 0 then "empty checkpoint" else "not a wayfinder checkpoint"))
  in
  let crc = ref (Crc32.update Crc32.init (String.sub s 0 (min n (header_end + 1)))) in
  let entries = ref [] and count = ref 0 in
  (* The state lines read since the last record, newest first, and whether
     its "end" was seen. *)
  let state = ref [] and ended = ref false in
  (* The newest valid record: its state, its number, the bytes up to its
     end and the entry count before it. *)
  let newest = ref None and records = ref 0 in
  let step line ~crc_before ~next =
    match Envelope.split_tag line with
    | "entry", rest ->
      if !state <> [] || !ended then Error (Malformed "entry line inside a state record")
      else
        let* e = parse_entry rest in
        entries := e :: !entries;
        incr count;
        Ok ()
    | "end", _ when not !ended ->
      ended := true;
      Ok ()
    | "crc", hex when !ended -> (
      match Crc32.of_hex hex with
      | None -> Error (Malformed ("bad crc line " ^ hex))
      | Some stored when stored <> Crc32.finish crc_before ->
        Error
          (Malformed
             (Printf.sprintf "crc mismatch (stored %s, computed %s)" hex
                (Crc32.to_hex (Crc32.finish crc_before))))
      | Some _ ->
        let* ck = parse_state (List.rev !state) in
        if ck.iterations <> !count then
          Error (Malformed "state record's iterations do not match the entries before it")
        else begin
          incr records;
          newest := Some (ck, !records, next, !count);
          state := [];
          ended := false;
          Ok ()
        end)
    | "crc", _ -> Error (Malformed "crc line before the end of a state record")
    | _ when !ended -> Error (Malformed "line after the end of a state record")
    | _ ->
      state := line :: !state;
      Ok ()
  in
  let rec go pos =
    if pos >= n then None
    else
      match String.index_from_opt s pos '\n' with
      | None -> Some (Malformed "torn line (no newline)")
      | Some q -> (
        let line = String.sub s pos (q - pos) in
        let crc_before = !crc in
        crc := Crc32.update (Crc32.update crc_before line) "\n";
        match step line ~crc_before ~next:(q + 1) with
        | Ok () -> go (q + 1)
        | Error e -> Some e)
  in
  let stop = go (min n (header_end + 1)) in
  match !newest with
  | None ->
    let why =
      match stop with
      | Some e -> error_to_string e
      | None -> "no complete state record"
    in
    Error (Malformed (why ^ ": no valid checkpoint state"))
  | Some (ck, records, valid_bytes, kept) ->
    let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
    let entries = List.rev (drop (!count - kept) !entries) in
    let dropped =
      if valid_bytes = n then None
      else
        Some
          ( n - valid_bytes,
            Option.value stop ~default:(Malformed "unterminated state record (no crc line)") )
    in
    Ok { ck = { ck with entries }; records; valid_bytes; dropped }

let of_string s = Result.map (fun r -> r.ck) (scan s)

let scan_from ~backend ~path =
  match backend.Durable.read path with
  | exception Durable.Io_error e -> Error (Malformed (Durable.io_error_to_string e))
  | s -> scan s

let load_from ~backend ~path = Result.map (fun r -> r.ck) (scan_from ~backend ~path)
let load ~path = load_from ~backend:Durable.fs ~path

type notice =
  | Recovered_from_generation of {
      generation : int;
      loaded_from : string;
      dropped : (string * error) list;
    }
  | Dropped_tail of { loaded_from : string; valid_bytes : int; dropped_bytes : int; reason : error }

let tail_message ~valid_bytes ~dropped_bytes reason =
  Printf.sprintf "dropped %d bytes after the newest valid state record (byte %d): %s"
    dropped_bytes valid_bytes (error_to_string reason)

let notice_to_string = function
  | Recovered_from_generation { generation; loaded_from; dropped } ->
    Printf.sprintf "recovered from generation %d (%s); dropped: %s" generation loaded_from
      (String.concat "; "
         (List.map (fun (p, e) -> Printf.sprintf "%s: %s" p (error_to_string e)) dropped))
  | Dropped_tail { loaded_from; valid_bytes; dropped_bytes; reason } ->
    Printf.sprintf "%s: %s" loaded_from (tail_message ~valid_bytes ~dropped_bytes reason)

let load_latest ?(backend = Durable.fs) path =
  let rec go gen dropped =
    if gen > max_generations then
      match List.rev dropped with
      | [] -> Error (Malformed (Printf.sprintf "no checkpoint found at %s" path))
      | (_, primary_error) :: _ -> Error primary_error
    else
      let p = generation_path path gen in
      if not (backend.Durable.exists p) then
        (* Generations are contiguous in normal operation, but fsck may
           have pruned one: probe the whole window. *)
        go (gen + 1) dropped
      else
        match scan_from ~backend ~path:p with
        | Ok r ->
          let notice =
            match (gen, r.dropped) with
            | 0, None -> None
            | 0, Some (dropped_bytes, reason) ->
              Some
                (Dropped_tail
                   { loaded_from = p; valid_bytes = r.valid_bytes; dropped_bytes; reason })
            | _, tail ->
              (* The fallback generation's own dropped tail is the last
                 thing dropped on the way to its state. *)
              let tail =
                match tail with
                | None -> []
                | Some (dropped_bytes, reason) ->
                  [ (p,
                     Malformed
                       (tail_message ~valid_bytes:r.valid_bytes ~dropped_bytes reason)) ]
              in
              Some
                (Recovered_from_generation
                   { generation = gen; loaded_from = p; dropped = List.rev_append dropped tail })
          in
          Ok (r.ck, notice)
        | Error e -> go (gen + 1) ((p, e) :: dropped)
  in
  go 0 []
