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
   resumed multi-objective trace run continues bitwise where it died. *)
let version = 5

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

let body_string t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "wayfinder-checkpoint %d" version;
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
  List.iter (fun e -> line "entry %s" (entry_line e)) t.entries;
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
  line "end";
  Buffer.contents buf

(* The sealed envelope: the body followed by a CRC-32 trailer line over
   the body bytes.  The trailer is mandatory on read, so a truncation
   that happens to cut exactly after the "end" marker is still
   detected. *)
let to_string t = Envelope.seal (body_string t)

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

let of_body s =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' s)
  in
  match lines with
  | [] -> Error (Malformed "empty checkpoint")
  | header :: rest -> (
    let* () =
      match String.split_on_char ' ' header with
      | [ "wayfinder-checkpoint"; v ] -> (
        match int_of_string_opt v with
        | Some found when found = version -> Ok ()
        | Some found -> Error (Unsupported_version { found; expected = version })
        | None -> Error (Malformed ("bad checkpoint version " ^ v)))
      | _ -> Error (Malformed "not a wayfinder checkpoint")
    in
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
    and entries = ref []
    and inflight = ref []
    and pareto = ref []
    and trace_cursor = ref None
    and ended = ref false in
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
      | "entry" ->
        let* e = parse_entry rest in
        entries := e :: !entries;
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
      | "end" ->
        ended := true;
        Ok ()
      | other -> Error (Malformed ("unknown checkpoint field " ^ other))
    in
    let rec consume = function
      | [] -> Ok ()
      | line :: rest ->
        let* () = parse_line line in
        consume rest
    in
    let* () = consume rest in
    let require name = function
      | Some v -> Ok v
      | None -> Error (Malformed ("missing " ^ name))
    in
    let* () = if !ended then Ok () else Error (Malformed "truncated checkpoint (no end marker)") in
    let* seed = require "seed" !seed in
    let* rng_state = require "rng" !rng_state in
    let* clock_seconds = require "clock" !clock in
    let* budget_start_seconds = require "budget_start" !budget_start in
    let* iterations = require "iterations" !iterations in
    let* workers = require "workers" !workers in
    let* consecutive_invalid = require "consecutive_invalid" !consecutive_invalid in
    let* cache_capacity = require "cache_capacity" !cache_capacity in
    let entries = List.rev !entries in
    let inflight = List.rev !inflight in
    let cache = List.rev !cache in
    let* () =
      if List.length entries = iterations then Ok ()
      else Error (Malformed "entry count does not match iterations")
    in
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
        entries;
        inflight;
        pareto = List.rev !pareto;
        trace_cursor = !trace_cursor })

let of_string s =
  (* The version check precedes the envelope check: files written by
     earlier format versions predate the CRC trailer and must still be
     rejected with the typed [Unsupported_version], not "missing
     trailer". *)
  let header =
    match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s
  in
  let* () =
    match String.split_on_char ' ' header with
    | [ "wayfinder-checkpoint"; v ] -> (
      match int_of_string_opt v with
      | Some found when found <> version ->
        Error (Unsupported_version { found; expected = version })
      | _ -> Ok ())
    | _ -> Ok ()
  in
  match Envelope.unseal s with
  | Envelope.Sealed body -> of_body body
  | Envelope.No_trailer -> Error (Malformed "missing crc trailer (unsealed or truncated checkpoint)")
  | Envelope.Corrupt msg -> Error (Malformed (msg ^ ": corrupt checkpoint"))

let load_from ~backend ~path =
  match backend.Durable.read path with
  | exception Durable.Io_error e -> Error (Malformed (Durable.io_error_to_string e))
  | s -> of_string s

let load ~path = load_from ~backend:Durable.fs ~path

type notice =
  | Recovered_from_generation of {
      generation : int;
      loaded_from : string;
      dropped : (string * error) list;
    }

let notice_to_string = function
  | Recovered_from_generation { generation; loaded_from; dropped } ->
    Printf.sprintf "recovered from generation %d (%s); dropped: %s" generation loaded_from
      (String.concat "; "
         (List.map (fun (p, e) -> Printf.sprintf "%s: %s" p (error_to_string e)) dropped))

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
        match load_from ~backend ~path:p with
        | Ok t ->
          let dropped = List.rev dropped in
          let notice =
            if gen = 0 && dropped = [] then None
            else Some (Recovered_from_generation { generation = gen; loaded_from = p; dropped })
          in
          Ok (t, notice)
        | Error e -> go (gen + 1) ((p, e) :: dropped)
  in
  go 0 []
