type value = String of string | Float of float | Int of int | Bool of bool

type t = (string * value) list

let empty = []

let string k v = (k, String v)
let float k v = (k, Float v)
let int k v = (k, Int v)
let bool k v = (k, Bool v)

let find t k = Option.map snd (List.find_opt (fun (k', _) -> k' = k) t)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* A loop, not [String.exists]: its local closure would be allocated on
   every call, and a ledger row escapes a few hundred tokens. *)
let clean s =
  let i = ref 0 in
  while !i < String.length s && not (needs_escape (String.unsafe_get s !i)) do
    incr i
  done;
  !i = String.length s

let add_json_string buf s =
  Buffer.add_char buf '"';
  if clean s then Buffer.add_string buf s
  else
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

(* At least [width] decimal digits of [n >= 0], zero-padded. *)
let rec add_digits buf width n =
  if n >= 10 || width > 1 then add_digits buf (width - 1) (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* [string_of_int] would go through the C printf machinery and allocate. *)
let add_int buf n =
  if n >= 0 then add_digits buf 1 n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf 1 (-n)
  end

(* What [Printf.sprintf "%.17g"] calls once it has parsed its format. *)
external format_float : string -> float -> string = "caml_format_float"

(* The one number writer of traces, ledgers and scrape files.  %.17g
   reads back bit for bit through [float_of_string]; integer-valued
   floats are written as integers ("42", and -0. as "-0"), exact below
   1e16. *)
let add_number buf v =
  if Float.is_integer v && Float.abs v < 1e16 then
    if v = 0. && Float.sign_bit v then Buffer.add_string buf "-0" else add_int buf (int_of_float v)
  else Buffer.add_string buf (format_float "%.17g" v)

let render add x =
  let buf = Buffer.create 64 in
  add buf x;
  Buffer.contents buf

let number = render add_number

let add_json_float buf v = if Float.is_finite v then add_number buf v else Buffer.add_string buf "null"

let add_value buf = function
  | String s -> add_json_string buf s
  | Float v -> add_json_float buf v
  | Int i -> add_int buf i
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")

let add_json buf t =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_json_string buf k;
      Buffer.add_char buf ':';
      add_value buf v)
    t;
  Buffer.add_char buf '}'

let json_of_value = render add_value
let to_json = render add_json
