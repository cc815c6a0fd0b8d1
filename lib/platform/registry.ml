(* Persistent model registry.  See the .mli for the format contract and
   DESIGN.md §16 for the fingerprint and staleness policy. *)

module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param

type fingerprint = { app : string; space_text : string; key : string }

type meta = {
  algo : string;
  seed : int;
  samples : int;
  metric_name : string;
  unit_name : string;
  maximize : bool;
  objectives : string list;
  best_value : float option;
  mean_value : float;
  crash_rate : float;
  ledger : string option;
}

type t = {
  fp : fingerprint;
  meta : meta;
  model_kind : string;
  model : float array;
  incumbents : Space.configuration list;
  sealed : bool;
}

type error =
  | Unsupported_version of { found : int; expected : int }
  | Malformed of string
  | Io of Durable.io_error

let error_to_string = function
  | Unsupported_version { found; expected } ->
    Printf.sprintf "model entry format version %d (this build reads %d)" found expected
  | Malformed msg -> "malformed model entry: " ^ msg
  | Io e -> Durable.io_error_to_string e

let version = 1

(* The line codecs and the CRC seal are {!Envelope}'s, shared with
   checkpoints. *)
let float_field = Envelope.float_field
let encode_string = Envelope.encode_string
let decode_string = Envelope.decode_string
let field r = Result.map_error (fun msg -> Malformed msg) r
let float_of_field s = field (Envelope.float_of_field s)

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let key_of ~app ~space_text = Crc32.to_hex (Crc32.digest (app ^ "\n" ^ space_text))

let fingerprint ~app space =
  let space_text = Space.canonical_description space in
  { app; space_text; key = key_of ~app ~space_text }

let entry_path ~dir fp = Filename.concat dir (fp.key ^ ".model")

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let to_string t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "wayfinder-model %d" version;
  line "key %s" t.fp.key;
  line "app %s" (encode_string t.fp.app);
  line "algo %s" (encode_string t.meta.algo);
  line "seed %d" t.meta.seed;
  line "samples %d" t.meta.samples;
  line "metric %s %s %d"
    (encode_string t.meta.metric_name)
    (encode_string t.meta.unit_name)
    (if t.meta.maximize then 1 else 0);
  List.iter (fun o -> line "objective %s" (encode_string o)) t.meta.objectives;
  line "best %s" (match t.meta.best_value with Some v -> float_field v | None -> "-");
  line "mean %s" (float_field t.meta.mean_value);
  line "crash_rate %s" (float_field t.meta.crash_rate);
  (match t.meta.ledger with Some l -> line "ledger %s" (encode_string l) | None -> ());
  line "model_kind %s" (encode_string t.model_kind);
  line "model_dim %d" (Array.length t.model);
  let n = Array.length t.model in
  let i = ref 0 in
  while !i < n do
    let k = min 8 (n - !i) in
    line "model %s"
      (String.concat " " (List.init k (fun j -> float_field t.model.(!i + j))));
    i := !i + k
  done;
  List.iter (fun c -> line "incumbent %s" (Envelope.config_field c)) t.incumbents;
  line "space %s" (encode_string t.fp.space_text);
  line "end";
  Envelope.seal (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let of_body ~sealed body =
  match String.split_on_char '\n' body with
  | [] -> Error (Malformed "empty model entry")
  | header :: rest -> (
    let* () =
      match String.split_on_char ' ' header with
      | [ "wayfinder-model"; v ] -> (
        match int_of_string_opt v with
        | Some v when v = version -> Ok ()
        | Some found -> Error (Unsupported_version { found; expected = version })
        | None -> Error (Malformed "bad version field"))
      | _ -> Error (Malformed "not a wayfinder model entry")
    in
    let key = ref None
    and app = ref None
    and algo = ref None
    and seed = ref None
    and samples = ref None
    and metric = ref None
    and objectives = ref []
    and best = ref None
    and mean = ref None
    and crash_rate = ref None
    and ledger = ref None
    and model_kind = ref None
    and model_dim = ref None
    and model = ref []
    and incumbents = ref []
    and space_text = ref None
    and ended = ref false in
    let int_field name r rest =
      match int_of_string_opt rest with
      | Some v ->
        r := Some v;
        Ok ()
      | None -> Error (Malformed ("bad " ^ name ^ " field"))
    in
    let parse_line l =
      let tag, rest = Envelope.split_tag l in
      match tag with
      | "key" ->
        key := Some rest;
        Ok ()
      | "app" ->
        app := Some (decode_string rest);
        Ok ()
      | "algo" ->
        algo := Some (decode_string rest);
        Ok ()
      | "seed" -> int_field "seed" seed rest
      | "samples" -> int_field "samples" samples rest
      | "metric" -> (
        match String.split_on_char ' ' rest with
        | [ name; unit_name; maximize ] when maximize = "0" || maximize = "1" ->
          metric := Some (decode_string name, decode_string unit_name, maximize = "1");
          Ok ()
        | _ -> Error (Malformed "bad metric field"))
      | "objective" ->
        objectives := decode_string rest :: !objectives;
        Ok ()
      | "best" ->
        if rest = "-" then begin
          best := Some None;
          Ok ()
        end
        else
          let* v = float_of_field rest in
          best := Some (Some v);
          Ok ()
      | "mean" ->
        let* v = float_of_field rest in
        mean := Some v;
        Ok ()
      | "crash_rate" ->
        let* v = float_of_field rest in
        crash_rate := Some v;
        Ok ()
      | "ledger" ->
        ledger := Some (decode_string rest);
        Ok ()
      | "model_kind" ->
        model_kind := Some (decode_string rest);
        Ok ()
      | "model_dim" -> int_field "model_dim" model_dim rest
      | "model" ->
        let rec go = function
          | [] -> Ok ()
          | tok :: more ->
            let* v = float_of_field tok in
            model := v :: !model;
            go more
        in
        go (String.split_on_char ' ' rest)
      | "incumbent" ->
        let* c = field (Envelope.config_of_field rest) in
        incumbents := c :: !incumbents;
        Ok ()
      | "space" ->
        space_text := Some (decode_string rest);
        Ok ()
      | "end" ->
        ended := true;
        Ok ()
      | other -> Error (Malformed ("unknown model entry field " ^ other))
    in
    let rec consume = function
      | [] -> Ok ()
      | [ "" ] -> Ok ()
      | _ when !ended -> Error (Malformed "content after end marker")
      | l :: rest ->
        let* () = parse_line l in
        consume rest
    in
    let* () = consume rest in
    if not !ended then Error (Malformed "missing end marker (truncated model entry)")
    else
      let require name = function
        | Some v -> Ok v
        | None -> Error (Malformed ("missing " ^ name ^ " field"))
      in
      let* key = require "key" !key in
      let* app = require "app" !app in
      let* algo = require "algo" !algo in
      let* seed = require "seed" !seed in
      let* samples = require "samples" !samples in
      let* metric_name, unit_name, maximize = require "metric" !metric in
      let* best_value = require "best" !best in
      let* mean_value = require "mean" !mean in
      let* crash_rate = require "crash_rate" !crash_rate in
      let* model_kind = require "model_kind" !model_kind in
      let* model_dim = require "model_dim" !model_dim in
      let* space_text = require "space" !space_text in
      let model = Array.of_list (List.rev !model) in
      if Array.length model <> model_dim then
        Error
          (Malformed
             (Printf.sprintf "model_dim %d but %d floats present" model_dim
                (Array.length model)))
      else if key <> key_of ~app ~space_text then
        (* The filename stem must be derivable from the verified
           identity; a disagreement means the entry was tampered with or
           mis-assembled.  Never trust the stored hash alone. *)
        Error (Malformed "key does not match app/space text")
      else
        Ok
          { fp = { app; space_text; key };
            meta =
              { algo;
                seed;
                samples;
                metric_name;
                unit_name;
                maximize;
                objectives = List.rev !objectives;
                best_value;
                mean_value;
                crash_rate;
                ledger = !ledger };
            model_kind;
            model;
            incumbents = List.rev !incumbents;
            sealed })

let of_string s =
  match Envelope.unseal s with
  | Envelope.Sealed body -> of_body ~sealed:true body
  | Envelope.No_trailer -> of_body ~sealed:false s
  | Envelope.Corrupt msg -> Error (Malformed msg)

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)
(* ------------------------------------------------------------------ *)

let save ?backend ?keep ~dir t =
  let path = entry_path ~dir t.fp in
  match Durable.atomic_publish ?backend ?keep ~path (to_string t) with
  | () -> Ok path
  | exception Durable.Io_error e -> Error (Io e)

let load ?backend path =
  match Durable.read_file ?backend path with
  | Error e -> Error (Io e)
  | Ok s -> of_string s

(* ------------------------------------------------------------------ *)
(* Matching                                                            *)
(* ------------------------------------------------------------------ *)

type quality =
  | Exact
  | Overlap of { shared : int; donor_params : int; target_params : int }

(* The transferable identity of a canonical param line: name, stage and
   kind — everything before " default=".  A re-defaulted or re-pinned
   parameter is still the same search dimension. *)
let param_identity line =
  let marker = " default=" in
  let n = String.length line and m = String.length marker in
  let rec find i =
    if i + m > n then line else if String.sub line i m = marker then String.sub line 0 i else find (i + 1)
  in
  find 0

let param_lines text =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' text)

let space_overlap ~donor ~target =
  let donor_ids = Hashtbl.create 32 in
  List.iter (fun l -> Hashtbl.replace donor_ids (param_identity l) ()) (param_lines donor);
  List.fold_left
    (fun acc l -> if Hashtbl.mem donor_ids (param_identity l) then acc + 1 else acc)
    0 (param_lines target)

let list ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun name -> Filename.check_suffix name ".model")
    |> List.sort String.compare
    |> List.map (fun name ->
           let path = Filename.concat dir name in
           (path, load path))

(* The stored app and full canonical text decide [Exact]; the key, a
   hash, is only ever a filename. *)
let classify fp e =
  if e.fp.app = fp.app && e.fp.space_text = fp.space_text then Some Exact
  else
    let shared = space_overlap ~donor:e.fp.space_text ~target:fp.space_text in
    if shared = 0 then None
    else
      Some
        (Overlap
           { shared;
             donor_params = List.length (param_lines e.fp.space_text);
             target_params = List.length (param_lines fp.space_text) })

let lookup ~dir fp =
  let candidates =
    List.filter_map
      (fun (path, r) ->
        match r with
        | Error _ -> None
        | Ok e -> Option.map (fun q -> (path, e, q)) (classify fp e))
      (list ~dir)
  in
  let rank (_, e, q) =
    match q with
    | Exact -> (2, 0, 0)
    | Overlap { shared; _ } -> ((if e.fp.app = fp.app then 1 else 0), shared, 0)
  in
  List.stable_sort (fun a b -> compare (rank b) (rank a)) candidates

(* ------------------------------------------------------------------ *)
(* Projection                                                          *)
(* ------------------------------------------------------------------ *)

(* Donor parameter names in positional order, decoded from the stored
   canonical text ("param <escaped-name> stage=..."). *)
let donor_param_names entry =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | "param" :: name :: _ -> Some (decode_string name)
      | _ -> None)
    (param_lines entry.fp.space_text)

let project_incumbents entry target =
  let names = Array.of_list (donor_param_names entry) in
  let donor_n = Array.length names in
  let by_name = Hashtbl.create donor_n in
  List.filter_map
    (fun c ->
      if Array.length c <> donor_n then None
      else begin
        Hashtbl.reset by_name;
        Array.iteri (fun i name -> Hashtbl.replace by_name name c.(i)) names;
        let out = Space.defaults target in
        Array.iteri
          (fun i p ->
            (* Pins win: a fixed parameter keeps its pinned value however
               the donor set it. *)
            if Space.fixed_value target i = None then
              match Hashtbl.find_opt by_name p.Param.name with
              | None -> ()
              | Some v ->
                if Param.value_ok p.Param.kind v then out.(i) <- v
                else (
                  (* Same dimension, shifted range: clamp into the new
                     domain; a kind change falls back to the default. *)
                  match Param.clamp p.Param.kind v with
                  | v -> out.(i) <- v
                  | exception Invalid_argument _ -> ()))
          (Space.params target);
        Some out
      end)
    entry.incumbents
