module Param = Wayfinder_configspace.Param
module Space = Wayfinder_configspace.Space
module History = Wayfinder_platform.History
module Metric = Wayfinder_platform.Metric
module Failure = Wayfinder_platform.Failure
module Search_algorithm = Wayfinder_platform.Search_algorithm
module Crc32 = Wayfinder_platform.Crc32
module Durable = Wayfinder_platform.Durable
module Obs = Wayfinder_obs

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

(* Line 1: the shared JSONL schema header ({!Obs.Sink.schema_header},
   kind "ledger").  Line 2: a meta record describing the run.  Every
   following line is one "iter" record, written in completion order.  A
   cleanly closed ledger ends with a "fin" seal — row count plus a
   CRC-32 over every preceding byte — so fsck can tell a complete file
   from a truncated or bit-flipped one; a ledger without the seal is
   still valid (a killed run is the normal case, not the exception). *)

let kind = "ledger"
let schema_version = Obs.Sink.schema_version

type error =
  | Missing_header
  | Unsupported_schema of int
  | Malformed of string

let error_to_string = function
  | Missing_header -> "not a wayfinder ledger: missing schema header line"
  | Unsupported_schema v ->
    Printf.sprintf "unsupported ledger schema version %d (this build reads version %d)" v
      schema_version
  | Malformed msg -> "malformed ledger: " ^ msg

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

type row = {
  index : int;
  tokens : string array;
  value : float option;
  failure : Failure.t option;
  at_seconds : float;
  eval_seconds : float;
  built : bool;
  decide_seconds : float;
  belief : Search_algorithm.belief option;
  objectives : float array option;
}

type meta = {
  algo : string;
  metric : Metric.t;
  seed : int option;
  params : (string * Param.stage) list;
  objectives : Metric.t list;
      (** Objective spec of a multi-objective run; [[]] for scalar runs.
          Additive: scalar ledgers never emit the key, so their bytes
          are unchanged and old readers (which ignore unknown keys) can
          still consume multi-objective files. *)
}

type t = { meta : meta; rows : row list; sealed : bool }

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let objective_json (m : Metric.t) =
  Json.Obj
    [ ("name", Json.Str m.Metric.metric_name);
      ("unit", Json.Str m.Metric.unit_name);
      ("maximize", Json.Bool m.Metric.maximize) ]

let meta_json m =
  Json.Obj
    ([ ("type", Json.Str "meta");
      ("algo", Json.Str m.algo);
      ("metric", Json.Str m.metric.Metric.metric_name);
      ("unit", Json.Str m.metric.Metric.unit_name);
      ("maximize", Json.Bool m.metric.Metric.maximize);
      ("seed", (match m.seed with Some s -> Json.Num (float_of_int s) | None -> Json.Null));
      ( "params",
        Json.List
          (List.map
             (fun (name, stage) ->
               Json.Obj
                 [ ("name", Json.Str name);
                   ("stage", Json.Str (Param.stage_to_string stage)) ])
             m.params) ) ]
    @
    (* Appended only when present, keeping scalar meta lines byte-stable. *)
    match m.objectives with
    | [] -> []
    | objectives -> [ ("objectives", Json.List (List.map objective_json objectives)) ])

(* An iter line, written straight into [buf]: the bytes [Json.to_string]
   gives the row's tree (the tests keep that tree as the reference),
   without building it. *)
let add_row buf r =
  let add = Buffer.add_string buf in
  let num = Json.add_number buf and str = Obs.Attr.add_json_string buf in
  let opt f = function Some x -> f x | None -> add "null" in
  let list f a = Array.iteri (fun i x -> if i > 0 then add ","; f x) a in
  let failure f = opt (fun x -> str (f x)) r.failure in
  add {|{"type":"iter","i":|};
  num (float_of_int r.index);
  add {|,"config":[|};
  list str r.tokens;
  add {|],"value":|};
  opt num r.value;
  add {|,"failure":|};
  failure Failure.to_string;
  add {|,"failure_class":|};
  failure (fun f -> Failure.klass_to_string (Failure.klass f));
  add {|,"at_s":|};
  num r.at_seconds;
  add {|,"eval_s":|};
  num r.eval_seconds;
  add (if r.built then {|,"built":true,"decide_s":|} else {|,"built":false,"decide_s":|});
  num r.decide_seconds;
  add {|,"belief":|};
  opt
    (fun (b : Search_algorithm.belief) ->
      add {|{"crash_p":|};
      opt num b.Search_algorithm.crash_probability;
      add {|,"value":|};
      opt num b.Search_algorithm.predicted_value;
      add {|,"sigma":|};
      opt num b.Search_algorithm.predicted_uncertainty;
      add {|,"source":|};
      str b.Search_algorithm.belief_source;
      add "}")
    r.belief;
  Option.iter
    (fun v ->
      add {|,"obj":[|};
      list num v;
      add "]")
    r.objectives;
  add "}"

let row_line r =
  let buf = Buffer.create 1024 in
  add_row buf r;
  Buffer.contents buf

let row_of_entry (e : History.entry) belief =
  { index = e.History.index;
    tokens = Array.map Param.value_token e.History.config;
    value = e.History.value;
    failure = e.History.failure;
    at_seconds = e.History.at_seconds;
    eval_seconds = e.History.eval_seconds;
    built = e.History.built;
    decide_seconds = e.History.decide_seconds;
    belief;
    objectives = e.History.objectives }

let fin_json ~rows ~crc =
  Json.Obj
    [ ("type", Json.Str "fin");
      ("rows", Json.Num (float_of_int rows));
      ("crc", Json.Str (Crc32.to_hex crc)) ]

type writer = {
  oc : out_channel;
  mutable closed : bool;
  (* Streaming CRC-32 of every byte written so far (newlines included):
     the seal is computed without re-reading the file. *)
  mutable crc : Crc32.t;
  mutable rows : int;
  line : Buffer.t;  (* Reused for every iter line. *)
}

let new_writer ?(crc = Crc32.init) ?(rows = 0) oc =
  { oc; closed = false; crc; rows; line = Buffer.create 2048 }

let emit w s =
  output_string w.oc s;
  w.crc <- Crc32.update w.crc s

(* The header and meta lines, newlines included. *)
let head ?seed ?(objectives = []) ~algo ~space ~metric () =
  let params =
    Array.to_list
      (Array.map (fun (p : Param.t) -> (p.Param.name, p.Param.stage)) (Space.params space))
  in
  Obs.Sink.schema_header ~kind ^ "\n"
  ^ Json.to_string (meta_json { algo; metric; seed; params; objectives })
  ^ "\n"

let create_writer ?seed ?objectives ~algo ~space ~metric path =
  let w = new_writer (open_out path) in
  emit w (head ?seed ?objectives ~algo ~space ~metric ());
  w

let record_row w r =
  if w.closed then invalid_arg "Ledger.record: writer is closed";
  Buffer.clear w.line;
  add_row w.line r;
  Buffer.add_char w.line '\n';
  emit w (Buffer.contents w.line);
  w.rows <- w.rows + 1;
  (* A ledger is a liveness artifact — a crashed run should still leave
     every completed iteration on disk. *)
  flush w.oc

let record w e belief = record_row w (row_of_entry e belief)

let close_writer w =
  if not w.closed then begin
    w.closed <- true;
    (* Seal: a reader (or fsck) can now distinguish "cleanly closed"
       from "truncated" and detect any bit flip in the body. *)
    output_string w.oc
      (Json.to_string (fin_json ~rows:w.rows ~crc:(Crc32.finish w.crc)));
    output_char w.oc '\n';
    close_out w.oc
  end

let to_string t =
  let lines =
    Obs.Sink.schema_header ~kind
    :: Json.to_string (meta_json t.meta)
    :: List.map row_line t.rows
  in
  let body = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  if not t.sealed then body
  else body ^ Json.to_string (fin_json ~rows:(List.length t.rows) ~crc:(Crc32.digest body)) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* Field projections report bare reasons; the reader anchors them to the
   line and byte where they occurred. *)
let req what = function Some v -> Ok v | None -> Error ("missing or ill-typed " ^ what)

let parse_header line =
  match Json.parse line with
  | Error _ -> Error Missing_header  (* Line 1 is not even JSON — not a header. *)
  | Ok j -> (
    match Option.bind (Json.member "wayfinder_schema" j) Json.to_int with
    | None -> Error Missing_header
    | Some v when v <> schema_version -> Error (Unsupported_schema v)
    | Some _ -> (
      match Option.bind (Json.member "kind" j) Json.to_str with
      | Some k when k = kind -> Ok ()
      | Some k -> Error (Malformed (Printf.sprintf "kind %S is not a ledger" k))
      | None -> Error (Malformed "header has no kind")))

let parse_meta line =
  match Json.parse line with
  | Error msg -> Error ("meta: " ^ msg)
  | Ok j ->
    let* () =
      match Option.bind (Json.member "type" j) Json.to_str with
      | Some "meta" -> Ok ()
      | Some _ | None -> Error "second line is not a meta record"
    in
    let* algo = req "meta.algo" (Option.bind (Json.member "algo" j) Json.to_str) in
    let* name = req "meta.metric" (Option.bind (Json.member "metric" j) Json.to_str) in
    let* unit_name = req "meta.unit" (Option.bind (Json.member "unit" j) Json.to_str) in
    let* maximize = req "meta.maximize" (Option.bind (Json.member "maximize" j) Json.to_bool) in
    let seed = Option.bind (Json.member "seed" j) Json.to_int in
    let* params = req "meta.params" (Option.bind (Json.member "params" j) Json.to_list) in
    let* params =
      List.fold_left
        (fun acc p ->
          let* acc = acc in
          let* name = req "param.name" (Option.bind (Json.member "name" p) Json.to_str) in
          let* stage_s = req "param.stage" (Option.bind (Json.member "stage" p) Json.to_str) in
          let* stage =
            match Param.stage_of_string stage_s with
            | Some s -> Ok s
            | None -> Error (Printf.sprintf "unknown stage %S" stage_s)
          in
          Ok ((name, stage) :: acc))
        (Ok []) params
    in
    let* objectives =
      match Json.member "objectives" j with
      | None -> Ok []
      | Some l ->
        let* items = req "meta.objectives" (Json.to_list l) in
        let* objectives =
          List.fold_left
            (fun acc o ->
              let* acc = acc in
              let* name = req "objective.name" (Option.bind (Json.member "name" o) Json.to_str) in
              let* unit_name =
                req "objective.unit" (Option.bind (Json.member "unit" o) Json.to_str)
              in
              let* maximize =
                req "objective.maximize" (Option.bind (Json.member "maximize" o) Json.to_bool)
              in
              Ok (Metric.make ~maximize ~name ~unit_name () :: acc))
            (Ok []) items
        in
        Ok (List.rev objectives)
    in
    Ok
      { algo;
        metric = Metric.make ~maximize ~name ~unit_name ();
        seed;
        params = List.rev params;
        objectives }

let parse_belief = function
  | Json.Null -> Ok None
  | j ->
    let* source = req "belief.source" (Option.bind (Json.member "source" j) Json.to_str) in
    Ok
      (Some
         { Search_algorithm.crash_probability =
             Option.bind (Json.member "crash_p" j) Json.to_float;
           predicted_value = Option.bind (Json.member "value" j) Json.to_float;
           predicted_uncertainty = Option.bind (Json.member "sigma" j) Json.to_float;
           belief_source = source })

let parse_row j =
  let* () =
    match Option.bind (Json.member "type" j) Json.to_str with
    | Some "iter" -> Ok ()
    | Some _ | None -> Error "not an iter record"
  in
  let* index = req "i" (Option.bind (Json.member "i" j) Json.to_int) in
  let* config = req "config" (Option.bind (Json.member "config" j) Json.to_list) in
  let* tokens =
    List.fold_left
      (fun acc t ->
        let* acc = acc in
        let* s = req "config token" (Json.to_str t) in
        Ok (s :: acc))
      (Ok []) config
  in
  let tokens = Array.of_list (List.rev tokens) in
  let value = Option.bind (Json.member "value" j) Json.to_float in
  let failure =
    Option.map Failure.of_string (Option.bind (Json.member "failure" j) Json.to_str)
  in
  let* at_seconds = req "at_s" (Option.bind (Json.member "at_s" j) Json.to_float) in
  let* eval_seconds = req "eval_s" (Option.bind (Json.member "eval_s" j) Json.to_float) in
  let* built = req "built" (Option.bind (Json.member "built" j) Json.to_bool) in
  let* decide_seconds = req "decide_s" (Option.bind (Json.member "decide_s" j) Json.to_float) in
  let* belief = parse_belief (Option.value ~default:Json.Null (Json.member "belief" j)) in
  let* objectives =
    match Json.member "obj" j with
    | None -> Ok None
    | Some l ->
      let* items = req "obj" (Json.to_list l) in
      let* vs =
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            let* v = req "obj component" (Json.to_float x) in
            Ok (v :: acc))
          (Ok []) items
      in
      Ok (Some (Array.of_list (List.rev vs)))
  in
  Ok
    { index;
      tokens;
      value;
      failure;
      at_seconds;
      eval_seconds;
      built;
      decide_seconds;
      belief;
      objectives }

type drop = { line : int; offset : int; reason : string }

type seal =
  | Unsealed
  | Sealed
  | Sealed_unverified

type phase =
  | Header
  | Meta
  | Rows

(* The one incremental reader behind the strict and salvage readers and
   Monitor.Tail.  It tracks the byte offset and a streaming CRC so (a)
   every drop names the exact line and byte where it happened, (b) the
   fin seal is verified against the bytes actually read, and (c) salvage
   knows where the clean prefix ends.  Body damage becomes a drop;
   header/meta damage is an error, since without the meta record the
   rows cannot be interpreted. *)
type reader = {
  mutable phase : phase;
  mutable offset : int;  (* Bytes consumed: the start of the next line. *)
  mutable lineno : int;  (* 1-based number of the next line. *)
  mutable crc : Crc32.t option;  (* Every consumed byte; [None] when resumed mid-file. *)
  mutable meta : meta option;
  mutable nrows : int;
  mutable ndrops : int;
  mutable rows : row list;  (* Not yet taken, newest first. *)
  mutable drops : drop list;  (* Not yet taken, newest first. *)
  mutable seal : seal;
  (* Rows and bytes strictly before the first drop or the fin line — the
     portion a repair keeps (and re-seals). *)
  mutable prefix : (int * int) option;
}

let reader () =
  { phase = Header; offset = 0; lineno = 1; crc = Some Crc32.init; meta = None; nrows = 0;
    ndrops = 0; rows = []; drops = []; seal = Unsealed; prefix = None }

let resume_reader ~rows_read ~offset meta =
  { (reader ()) with phase = Rows; offset; crc = None; meta = Some meta; nrows = rows_read }

let reader_meta r = r.meta
let reader_seal r = r.seal
let reader_offset r = r.offset
let reader_rows r = r.nrows
let reader_drops r = r.ndrops

let take r =
  let taken = (List.rev r.rows, List.rev r.drops) in
  r.rows <- [];
  r.drops <- [];
  taken

let mark_prefix r = if r.prefix = None then r.prefix <- Some (r.nrows, r.offset)

let drop r reason =
  mark_prefix r;
  r.ndrops <- r.ndrops + 1;
  r.drops <- { line = r.lineno; offset = r.offset; reason } :: r.drops

let check_fin r j =
  let stored_rows = Option.bind (Json.member "rows" j) Json.to_int in
  let stored_crc = Option.bind (Option.bind (Json.member "crc" j) Json.to_str) Crc32.of_hex in
  match (stored_rows, stored_crc, r.crc) with
  | None, _, _ | _, None, _ -> drop r "fin seal is missing rows or crc"
  | Some n, _, _ when n <> r.nrows ->
    drop r (Printf.sprintf "fin seal claims %d rows but %d were read (truncated body?)" n r.nrows)
  | Some _, Some _, None ->
    mark_prefix r;
    r.seal <- Sealed_unverified
  | Some _, Some stored, Some crc ->
    let computed = Crc32.finish crc in
    if stored <> computed then
      drop r
        (Printf.sprintf "fin seal crc mismatch (stored %s, computed %s)" (Crc32.to_hex stored)
           (Crc32.to_hex computed))
    else begin
      mark_prefix r;
      r.seal <- Sealed
    end

let body_line r line =
  if String.trim line = "" then ()
  else if r.seal <> Unsealed then drop r "content after fin seal"
  else
    match Json.parse line with
    | Error msg -> drop r msg
    | Ok j -> (
      match Option.bind (Json.member "type" j) Json.to_str with
      | Some "fin" -> check_fin r j
      | _ -> (
        match parse_row j with
        | Ok row ->
          r.rows <- row :: r.rows;
          r.nrows <- r.nrows + 1
        | Error reason -> drop r reason))

let feed r line =
  let* () =
    match r.phase with
    | Header ->
      let* () = parse_header line in
      r.phase <- Meta;
      Ok ()
    | Meta -> (
      match parse_meta line with
      | Ok meta ->
        r.meta <- Some meta;
        r.phase <- Rows;
        Ok ()
      | Error reason ->
        Error (Malformed (Printf.sprintf "line %d (byte %d): %s" r.lineno r.offset reason)))
    | Rows -> Ok (body_line r line)
  in
  r.crc <- Option.map (fun c -> Crc32.update (Crc32.update c line) "\n") r.crc;
  r.offset <- r.offset + String.length line + 1;
  r.lineno <- r.lineno + 1;
  Ok ()

type salvage = {
  ledger : t;
  dropped : drop list;
  clean_prefix_rows : int;
  clean_prefix_bytes : int;
}

(* A whole-file read: every '\n'-separated piece is fed, the final
   unterminated one included — there is nothing more to wait for.
   Strictly, the first drop is the error. *)
let read_lines ~strict lines =
  let r = reader () in
  let rec go = function
    | [] -> Ok ()
    | line :: rest -> (
      let* () = feed r line in
      match r.drops with
      | d :: _ when strict ->
        Error (Malformed (Printf.sprintf "line %d (byte %d): %s" d.line d.offset d.reason))
      | _ -> go rest)
  in
  let* () = go lines in
  match r.meta with
  | Some meta -> Ok (r, { meta; rows = List.rev r.rows; sealed = r.seal = Sealed })
  | None when r.phase = Header -> Error Missing_header
  | None ->
    Error
      (Malformed
         (Printf.sprintf "line 2 (byte %d): ledger has no meta record (truncated after header)"
            r.offset))

let of_lines lines = Result.map snd (read_lines ~strict:true lines)
let of_string s = of_lines (String.split_on_char '\n' s)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error msg -> Error (Malformed msg)

let salvage_string s =
  let* r, ledger = read_lines ~strict:false (String.split_on_char '\n' s) in
  let clean_prefix_rows, clean_prefix_bytes = Option.value r.prefix ~default:(r.nrows, r.offset) in
  (* The reader overcounts the final offset by one when the file lacks a
     trailing newline; clamp so the prefix is always a real substring. *)
  Ok
    { ledger;
      dropped = List.rev r.drops;
      clean_prefix_rows;
      clean_prefix_bytes = min clean_prefix_bytes (String.length s) }

let salvage path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> salvage_string contents
  | exception Sys_error msg -> Error (Malformed msg)

let repair_string s =
  let* r = salvage_string s in
  let prefix = String.sub s 0 r.clean_prefix_bytes in
  let prefix =
    if prefix = "" || prefix.[String.length prefix - 1] = '\n' then prefix else prefix ^ "\n"
  in
  let fin =
    Json.to_string (fin_json ~rows:r.clean_prefix_rows ~crc:(Crc32.digest prefix))
  in
  Ok (prefix ^ fin ^ "\n", r)

(* ------------------------------------------------------------------ *)
(* Reopening for a resumed run                                         *)
(* ------------------------------------------------------------------ *)

let reopen_writer ?seed ?objectives ~algo ~space ~metric ~entries path =
  let fail fmt = Printf.ksprintf (fun m -> Error (Malformed (path ^ ": " ^ m))) fmt in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error (Malformed msg)
  | contents -> (
    let k = List.length entries in
    (* A kept row is the line its entry renders to with the file's own
       decide_s and belief, the two fields a checkpoint cannot pin. *)
    let rec keep pos i = function
      | [] -> Ok pos
      | (e : History.entry) :: rest -> (
        let nl = Option.value (String.index_from_opt contents pos '\n') ~default:(-1) in
        let line = if nl < 0 then "" else String.sub contents pos (nl - pos) in
        match Result.bind (Json.parse line) parse_row with
        | Error _ -> fail "holds %d complete rows but the checkpoint completed %d" i k
        | Ok r ->
          let want = { (row_of_entry e r.belief) with decide_seconds = r.decide_seconds } in
          if line = row_line want then keep (nl + 1) (i + 1) rest
          else fail "row %d is not the checkpoint's entry %d" (i + 1) e.History.index)
    in
    let head = head ?seed ?objectives ~algo ~space ~metric () in
    let* pos =
      if String.starts_with ~prefix:head contents then keep (String.length head) 0 entries
      else fail "header or meta is not this run's (other algorithm, seed or space?)"
    in
    (* Later rows, a torn tail and the seal go in one atomic rewrite. *)
    let prefix = String.sub contents 0 pos in
    match if pos = String.length contents then Ok () else Durable.atomic_write ~path prefix with
    | Error e -> fail "%s" (Durable.io_error_to_string e)
    | Ok () ->
      let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
      Ok (new_writer ~crc:(Crc32.update Crc32.init prefix) ~rows:k oc))
