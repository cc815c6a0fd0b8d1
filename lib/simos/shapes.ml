module Rng = Wayfinder_tensor.Rng

(* FNV-1a with the offset basis folded into OCaml's 63-bit int range. *)
let fnv_basis = 0x3bf29ce484222325
let fnv_byte h c = (h lxor c) * 0x100000001b3

let hash_string s = String.fold_left (fun h c -> fnv_byte h (Char.code c)) fnv_basis s land max_int

(* The bytes of [string_of_int n], fed without building the string.  The
   digits are taken from a non-positive value, so [min_int], which has
   no positive counterpart, needs no special case. *)
let fnv_int h n =
  let rec digits h m =
    let h = if m <= -10 then digits h (m / 10) else h in
    fnv_byte h (Char.code '0' - (m mod 10))
  in
  if n < 0 then digits (fnv_byte h (Char.code '-')) n else digits h (-n)

(* [hash_string (string_of_int a ^ ":" ^ string_of_int b)]: the
   simulators hash every parameter of every configuration they
   evaluate through this. *)
let hash_combine a b = fnv_int (fnv_byte (fnv_int fnv_basis a) (Char.code ':')) b land max_int

let rng_named name ~salt = Rng.create (hash_combine (hash_string name) salt)

let clamp lo hi x = Stdlib.max lo (Stdlib.min hi x)

let saturating ~v ~reference ~cap_ratio ~gain =
  if v <= 0 then -.gain
  else begin
    let ratio = log10 (float_of_int v /. float_of_int (max 1 reference)) in
    let span = log10 cap_ratio in
    if span <= 0. then 0. else gain *. clamp (-1.) 1. (ratio /. span)
  end

let peaked ~v ~optimum ~width ~gain =
  if v <= 0 || optimum <= 0 then 0.
  else begin
    let x = log10 (float_of_int v /. float_of_int optimum) /. width in
    gain *. exp (-.(x *. x))
  end

let peaked_relative = peaked

let level_penalty ~level ~neutral ~per_level =
  if level > neutral then -.(float_of_int (level - neutral) *. per_level) else 0.

let step_penalty flag loss = if flag then -.loss else 0.
