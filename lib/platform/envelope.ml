module Param = Wayfinder_configspace.Param

let float_field = Param.float_field
let float_of_field = Param.float_of_field

let encode_string =
  Param.percent_encode ~plain:(function '%' | '\t' | '\n' | '\r' | ' ' -> false | _ -> true)

let decode_string = Param.percent_decode

let config_field config =
  if Array.length config = 0 then "."
  else String.concat " " (Array.to_list (Array.map Param.value_token config))

let config_of_field s =
  if s = "." then Ok [||]
  else
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | tok :: rest -> (
        match Param.value_of_token tok with
        | Some v -> go (v :: acc) rest
        | None -> Error ("bad value token " ^ tok))
    in
    go [] (String.split_on_char ' ' s)

let split_tag line =
  match String.index_opt line ' ' with
  | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
  | None -> (line, "")

let seal body = body ^ "crc " ^ Crc32.to_hex (Crc32.digest body) ^ "\n"

type unsealed =
  | Sealed of string
  | No_trailer
  | Corrupt of string

let unseal s =
  let n = String.length s in
  if n = 0 || s.[n - 1] <> '\n' then No_trailer
  else
    let start = match String.rindex_from_opt s (n - 2) '\n' with Some i -> i + 1 | None -> 0 in
    match split_tag (String.sub s start (n - 1 - start)) with
    | "crc", hex -> (
      let body = String.sub s 0 start in
      match Crc32.of_hex hex with
      | None -> Corrupt ("bad crc trailer " ^ hex)
      | Some stored ->
        let computed = Crc32.digest body in
        if computed = stored then Sealed body
        else
          Corrupt
            (Printf.sprintf "crc mismatch (stored %s, computed %s)" hex (Crc32.to_hex computed)))
    | _ -> No_trailer
