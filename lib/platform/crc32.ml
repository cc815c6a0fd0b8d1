type t = int32

(* Reflected polynomial 0xEDB88320; table entry i is the CRC of the
   single byte i.  The fold runs on native ints, which hold the 32-bit
   state unboxed, so it allocates nothing per byte. *)
let table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref i in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let init = 0xFFFFFFFFl

let update state s =
  let table = Lazy.force table in
  let crc = ref (Int32.to_int state land 0xFFFFFFFF) in
  for i = 0 to String.length s - 1 do
    (* The index is masked to a byte, inside the 256-entry table. *)
    crc :=
      Array.unsafe_get table ((!crc lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  Int32.of_int !crc

let finish state = Int32.logxor state 0xFFFFFFFFl
let digest s = finish (update init s)
let to_hex v = Printf.sprintf "%08lx" v

let of_hex s =
  if String.length s <> 8 then None
  else
    match Int32.of_string_opt ("0x" ^ s) with
    | Some v -> Some v
    | None -> None
