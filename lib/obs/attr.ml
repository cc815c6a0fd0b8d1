type value = String of string | Float of float | Int of int | Bool of bool

type t = (string * value) list

let empty = []

let string k v = (k, String v)
let float k v = (k, Float v)
let int k v = (k, Int v)
let bool k v = (k, Bool v)

let find t k = Option.map snd (List.find_opt (fun (k', _) -> k' = k) t)

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_json_string buf s;
  Buffer.contents buf

(* Exact round-trip: a reader that sums trace durations must recover the
   bit-identical floats the recorder fed its histograms (the span
   profiler reconciles the two), so shortest-exact beats fixed width. *)
let json_of_float v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let json_of_value = function
  | String s -> json_string s
  | Float v -> json_of_float v
  | Int i -> string_of_int i
  | Bool b -> if b then "true" else "false"

let to_json t =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ json_of_value v) t) ^ "}"
