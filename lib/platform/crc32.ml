type t = int32

(* Reflected polynomial 0xEDB88320, sliced by eight: table k (entries
   256k to 256k + 255) maps byte i to the CRC of i followed by k zero
   bytes, so table 0 is the one-byte table.  The fold runs on native
   ints, which hold the 32-bit state unboxed, so it allocates nothing. *)
let tables =
  lazy
    (let t = Array.make 2048 0 in
     for i = 0 to 255 do
       let c = ref i in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(i) <- !c
     done;
     for i = 256 to 2047 do
       let prev = t.(i - 256) in
       t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
     done;
     t)

let init = 0xFFFFFFFFl

let update_bytes state s ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length s - len then invalid_arg "Crc32.update_bytes";
  let t = Lazy.force tables in
  let n = pos + len in
  let crc = ref (Int32.to_int state land 0xFFFFFFFF) in
  let i = ref pos in
  (* Eight bytes per step, read as two little-endian words: each byte
     indexes the table of the zero bytes that follow it in the step.
     Every index is masked to a byte, inside its table. *)
  while !i + 8 <= n do
    let lo = !crc lxor (Int32.to_int (Bytes.get_int32_le s !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (Bytes.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
    crc :=
      Array.unsafe_get t (0x700 lor (lo land 0xFF))
      lxor Array.unsafe_get t (0x600 lor ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x500 lor ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (0x400 lor (lo lsr 24))
      lxor Array.unsafe_get t (0x300 lor (hi land 0xFF))
      lxor Array.unsafe_get t (0x200 lor ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x100 lor ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to n - 1 do
    crc :=
      Array.unsafe_get t ((!crc lxor Char.code (Bytes.unsafe_get s j)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  Int32.of_int !crc

(* Read only: the string is never written through the alias. *)
let update state s =
  update_bytes state (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let finish state = Int32.logxor state 0xFFFFFFFFl
let digest s = finish (update init s)
let to_hex v = Printf.sprintf "%08lx" v

let of_hex s =
  if String.length s <> 8 then None
  else
    match Int32.of_string_opt ("0x" ^ s) with
    | Some v -> Some v
    | None -> None
