type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Map of (string * t) list

exception Parse_error of { line : int; message : string }

let fail line message = raise (Parse_error { line; message })

(* ------------------------------------------------------------------ *)
(* Scalars                                                             *)
(* ------------------------------------------------------------------ *)

let is_quoted s =
  let n = String.length s in
  n >= 2
  && ((s.[0] = '"' && s.[n - 1] = '"') || (s.[0] = '\'' && s.[n - 1] = '\''))

let unquote s = String.sub s 1 (String.length s - 2)

let looks_like_int s =
  let n = String.length s in
  if n = 0 then false
  else begin
    let start = if s.[0] = '-' || s.[0] = '+' then 1 else 0 in
    start < n
    && (try
          String.iteri (fun i c -> if i >= start && not (c >= '0' && c <= '9') then raise Exit) s;
          true
        with Exit -> false)
  end

let looks_like_hex s =
  String.length s > 2
  && s.[0] = '0'
  && (s.[1] = 'x' || s.[1] = 'X')
  && (try
        String.iteri
          (fun i c ->
            if i >= 2 then
              match c with
              | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
              | _ -> raise Exit)
          s;
        true
      with Exit -> false)

let scalar_of_string raw =
  let s = String.trim raw in
  if s = "" then Null
  else if is_quoted s then String (unquote s)
  else
    match String.lowercase_ascii s with
    | "null" | "~" -> Null
    | "{}" -> Map []
    | "true" | "yes" -> Bool true
    | "false" | "no" -> Bool false
    | _ ->
      if looks_like_int s || looks_like_hex s then Int (int_of_string s)
      else (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> String s)

(* ------------------------------------------------------------------ *)
(* Line scanning                                                       *)
(* ------------------------------------------------------------------ *)

type line = { indent : int; content : string; lineno : int }

(* Strip a trailing comment, respecting single and double quotes. *)
let strip_comment s =
  let n = String.length s in
  let rec scan i quote =
    if i >= n then s
    else
      match (s.[i], quote) with
      | '#', None when i = 0 || s.[i - 1] = ' ' || s.[i - 1] = '\t' -> String.sub s 0 i
      | ('"' | '\''), None -> scan (i + 1) (Some s.[i])
      | c, Some q when c = q -> scan (i + 1) None
      | _, _ -> scan (i + 1) quote
  in
  scan 0 None

let scan_lines text =
  let raw = String.split_on_char '\n' text in
  let scan_one lineno l =
    let l = if String.length l > 0 && l.[String.length l - 1] = '\r' then String.sub l 0 (String.length l - 1) else l in
    let l = strip_comment l in
    let n = String.length l in
    let rec indent_of i = if i < n && l.[i] = ' ' then indent_of (i + 1) else i in
    let ind = indent_of 0 in
    if ind < n && l.[ind] = '\t' then fail lineno "tab characters are not allowed in indentation";
    let content = String.trim l in
    if content = "" then None else Some { indent = ind; content; lineno }
  in
  List.filteri (fun _ _ -> true) raw
  |> List.mapi (fun i l -> scan_one (i + 1) l)
  |> List.filter_map Fun.id

(* ------------------------------------------------------------------ *)
(* Flow sequences                                                      *)
(* ------------------------------------------------------------------ *)

(* [String.trim]'s whitespace. *)
let is_space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

let unbalanced_close = "unbalanced ']' in flow sequence"

(* A flow sequence is read by index, in one pass over its text and one
   walk.  The pass tracks quotes and bracket depth: it rejects an
   unbalanced body and records where each unquoted '[' closes and which
   commas are unquoted.  The walk splits each level's body at those
   commas and steps over every nested group in one jump, so each
   character is visited once per phase.  Every body and every item
   starts outside any quote, so the pass's quote state is the one a
   level's own scan would see.  The errors are those of checking a whole
   level's brackets before parsing any of its items, in order: inside a
   balanced body only a group that closes before its item ends can fail
   that check, with an unbalanced ']'. *)
let parse_flow lineno s =
  let s = String.trim s in
  let n = String.length s in
  if n >= 2 && s.[0] = '[' && s.[n - 1] = ']' then begin
    (* close.(i): where the unquoted '[' at i closes; [comma] marks an
       unquoted ','; -1 anything else. *)
    let comma = -2 in
    let close = Array.make n (-1) in
    (* [opened]: the unquoted '['s not closed yet, innermost first;
       [quote]: the open quote character, '\000' outside quotes. *)
    let opened = ref [] and quote = ref '\000' in
    for i = 1 to n - 2 do
      let c = String.unsafe_get s i in
      if !quote <> '\000' then (if c = !quote then quote := '\000')
      else
        match c with
        | '"' | '\'' -> quote := c
        | '[' -> opened := i :: !opened
        | ']' -> (
          match !opened with
          | o :: rest ->
            close.(o) <- i;
            opened := rest
          | [] -> fail lineno unbalanced_close)
        | ',' -> close.(i) <- comma
        | _ -> ()
    done;
    if !opened <> [] then fail lineno "unbalanced '[' in flow sequence";
    (* The items of the body [lo, hi), which holds no unmatched bracket. *)
    let rec items lo hi =
      let acc = ref [] and start = ref lo and i = ref lo in
      while !i < hi do
        let c = close.(!i) in
        if c >= 0 then i := c + 1
        else begin
          if c = comma then begin
            item acc !start !i;
            start := !i + 1
          end;
          incr i
        end
      done;
      item acc !start hi;
      List (List.rev !acc)
    and item acc a b =
      let a = ref a and b = ref b in
      while !a < !b && is_space s.[!a] do incr a done;
      while !b > !a && is_space s.[!b - 1] do decr b done;
      let a = !a and b = !b in
      if a < b then begin
        let v =
          if s.[a] <> '[' then scalar_of_string (String.sub s a (b - a))
          else if b - a < 2 || s.[b - 1] <> ']' then fail lineno "unterminated flow sequence"
          else if close.(a) <> b - 1 then fail lineno unbalanced_close
          else items (a + 1) (b - 1)
        in
        acc := v :: !acc
      end
    in
    items 1 (n - 1)
  end
  else if n >= 1 && s.[0] = '[' then fail lineno "unterminated flow sequence"
  else scalar_of_string s

let is_flow s =
  let s = String.trim s in
  String.length s >= 1 && s.[0] = '['

(* ------------------------------------------------------------------ *)
(* Block parsing                                                       *)
(* ------------------------------------------------------------------ *)

(* Split "key: value" at the first unquoted ": " or trailing ":". *)
let split_key_value l =
  let s = l.content in
  let n = String.length s in
  let rec scan i quote =
    if i >= n then None
    else
      match (s.[i], quote) with
      | ('"' | '\''), None -> scan (i + 1) (Some s.[i])
      | c, Some q when c = q -> scan (i + 1) None
      | ':', None when i = n - 1 -> Some (String.sub s 0 i, "")
      | ':', None when i + 1 < n && (s.[i + 1] = ' ' || s.[i + 1] = '\t') ->
        Some (String.sub s 0 i, String.trim (String.sub s (i + 1) (n - i - 1)))
      | _, _ -> scan (i + 1) quote
  in
  match scan 0 None with
  | None -> None
  | Some (k, v) ->
    let k = String.trim k in
    let k = if is_quoted k then unquote k else k in
    if k = "" then fail l.lineno "empty mapping key" else Some (k, v)

let rec parse_block lines =
  match lines with
  | [] -> (Null, [])
  | first :: rest ->
    if first.content = "{}" then (Map [], rest)
    else if is_flow first.content then (parse_flow first.lineno first.content, rest)
    else if String.length first.content >= 1 && first.content.[0] = '-'
            && (String.length first.content = 1 || first.content.[1] = ' ')
    then parse_sequence first.indent lines
    else parse_mapping first.indent lines

and parse_sequence indent lines =
  let rec items acc = function
    | l :: rest when l.indent = indent && String.length l.content >= 1 && l.content.[0] = '-'
                     && (String.length l.content = 1 || l.content.[1] = ' ') ->
      let inner = String.trim (String.sub l.content 1 (String.length l.content - 1)) in
      if inner = "" then begin
        (* Nested block item on the following, deeper-indented lines. *)
        let nested, rest' = take_deeper indent rest in
        let v, leftover = parse_block nested in
        if leftover <> [] then fail l.lineno "trailing content in sequence item";
        items (v :: acc) rest'
      end
      else begin
        (* The item may itself start a mapping: "- key: value". *)
        let item_line = { l with content = inner; indent = indent + 2 } in
        match split_key_value item_line with
        | Some _ ->
          let nested, rest' = take_deeper indent rest in
          let v, leftover = parse_mapping (indent + 2) ((item_line :: nested)) in
          if leftover <> [] then fail l.lineno "trailing content in sequence item";
          items (v :: acc) rest'
        | None ->
          let v = if is_flow inner then parse_flow l.lineno inner else scalar_of_string inner in
          items (v :: acc) rest
      end
    | rest -> (List (List.rev acc), rest)
  in
  items [] lines

and parse_mapping indent lines =
  let rec entries acc = function
    | l :: rest when l.indent = indent -> begin
      match split_key_value l with
      | None -> fail l.lineno (Printf.sprintf "expected 'key: value', got %S" l.content)
      | Some (key, "") ->
        let nested, rest' = take_deeper indent rest in
        let v =
          if nested = [] then Null
          else begin
            let v, leftover = parse_block nested in
            if leftover <> [] then fail l.lineno "inconsistent indentation under key";
            v
          end
        in
        entries ((key, v) :: acc) rest'
      | Some (key, value) ->
        let v = if is_flow value then parse_flow l.lineno value else scalar_of_string value in
        entries ((key, v) :: acc) rest
    end
    | l :: _ when l.indent > indent -> fail l.lineno "unexpected indentation"
    | rest -> (Map (List.rev acc), rest)
  in
  entries [] lines

and take_deeper indent lines =
  let rec split acc = function
    | l :: rest when l.indent > indent -> split (l :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  split [] lines

let parse text =
  let lines = scan_lines text in
  match lines with
  | [] -> Null
  | first :: _ ->
    if first.indent <> 0 then fail first.lineno "document must start at column 0";
    let v, leftover = parse_block lines in
    (match leftover with
     | [] -> v
     | l :: _ -> fail l.lineno "trailing content after document")

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  parse content

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "list"
  | Map _ -> "map"

let find v key =
  match v with
  | Map entries -> (
    match List.assoc_opt key entries with
    | Some x -> x
    | None -> raise Not_found)
  | Null | Bool _ | Int _ | Float _ | String _ | List _ ->
    invalid_arg (Printf.sprintf "Yamlite.find: expected map, got %s" (type_name v))

let find_opt v key = match v with Map entries -> List.assoc_opt key entries | _ -> None

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let needs_quoting s =
  s = ""
  || is_quoted s
  || (match scalar_of_string s with String s' when s' = s -> false | _ -> true)
  || String.exists (fun c -> c = ':' || c = '#' || c = '[' || c = ']' || c = ',') s
  || s.[0] = '-' || s.[0] = ' ' || s.[String.length s - 1] = ' '

let scalar_to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.17g" f
  | String s -> if needs_quoting s then "\"" ^ s ^ "\"" else s
  | List _ | Map _ -> invalid_arg "Yamlite.scalar_to_string: not a scalar"

let rec render buf indent v =
  let pad = String.make indent ' ' in
  match v with
  | Null | Bool _ | Int _ | Float _ | String _ ->
    Buffer.add_string buf pad;
    Buffer.add_string buf (scalar_to_string v);
    Buffer.add_char buf '\n'
  | List [] ->
    Buffer.add_string buf pad;
    Buffer.add_string buf "[]\n"
  | Map [] ->
    Buffer.add_string buf pad;
    Buffer.add_string buf "{}\n"
  | List items ->
    List.iter
      (fun item ->
        match item with
        | Null | Bool _ | Int _ | Float _ | String _ | List [] | Map [] ->
          let inline =
            match item with List [] -> "[]" | Map [] -> "{}" | other -> scalar_to_string other
          in
          Buffer.add_string buf pad;
          Buffer.add_string buf "- ";
          Buffer.add_string buf inline;
          Buffer.add_char buf '\n'
        | List _ | Map _ ->
          Buffer.add_string buf pad;
          Buffer.add_string buf "-\n";
          render buf (indent + 2) item)
      items
  | Map entries ->
    List.iter
      (fun (k, item) ->
        let key = if needs_quoting k then "\"" ^ k ^ "\"" else k in
        match item with
        | Null | Bool _ | Int _ | Float _ | String _ | List [] | Map [] ->
          let inline =
            match item with List [] -> "[]" | Map [] -> "{}" | other -> scalar_to_string other
          in
          Buffer.add_string buf pad;
          Buffer.add_string buf key;
          Buffer.add_string buf ": ";
          Buffer.add_string buf inline;
          Buffer.add_char buf '\n'
        | List _ | Map _ ->
          Buffer.add_string buf pad;
          Buffer.add_string buf key;
          Buffer.add_string buf ":\n";
          render buf (indent + 2) item)
      entries

let to_string v =
  let buf = Buffer.create 256 in
  render buf 0 v;
  Buffer.contents buf

let rec pp ppf = function
  | Null -> Format.fprintf ppf "null"
  | Bool b -> Format.fprintf ppf "%b" b
  | Int i -> Format.fprintf ppf "%d" i
  | Float f -> Format.fprintf ppf "%g" f
  | String s -> Format.fprintf ppf "%S" s
  | List items ->
    Format.fprintf ppf "[@[<hov>%a@]]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp) items
  | Map entries ->
    let pp_entry ppf (k, v) = Format.fprintf ppf "%s: %a" k pp v in
    Format.fprintf ppf "{@[<hov>%a@]}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_entry)
      entries
