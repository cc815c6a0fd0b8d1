module Rng = Wayfinder_tensor.Rng
module Param = Wayfinder_configspace.Param

(* FNV-1a with the offset basis folded into OCaml's 63-bit int range. *)
let fnv_basis = 0x3bf29ce484222325
let fnv_byte h c = (h lxor c) * 0x100000001b3

let hash_string s = String.fold_left (fun h c -> fnv_byte h (Char.code c)) fnv_basis s land max_int

(* The bytes of [string_of_int n], fed without building the string and
   without a division per digit: the magnitude is split into a leading
   group of up to seven digits and zero-padded six-digit groups, each
   written as two-digit pairs.  Every divisor is a constant.  A negative
   [n] is split on its own side, so [min_int], which has no positive
   counterpart, needs no special case. *)
let[@inline] fnv_digit h d = fnv_byte h (Char.code '0' + d)
let[@inline] fnv_pair h x = fnv_digit (fnv_digit h (x / 10)) (x mod 10)
let[@inline] fnv_six h x =
  fnv_pair (fnv_pair (fnv_pair h (x / 10_000)) (x / 100 mod 100)) (x mod 100)

(* [0 <= x < 10_000_000], without leading zeros. *)
let fnv_lead h x =
  if x < 10 then fnv_digit h x
  else if x < 100 then fnv_pair h x
  else if x < 1_000 then fnv_pair (fnv_digit h (x / 100)) (x mod 100)
  else if x < 10_000 then fnv_pair (fnv_pair h (x / 100)) (x mod 100)
  else if x < 100_000 then
    fnv_pair (fnv_pair (fnv_digit h (x / 10_000)) (x / 100 mod 100)) (x mod 100)
  else if x < 1_000_000 then fnv_six h x
  else fnv_six (fnv_digit h (x / 1_000_000)) (x mod 1_000_000)

(* The magnitude [hi * 10^6 + lo], with [0 <= lo < 10^6] and
   [hi < 10^13]. *)
let fnv_magnitude h hi lo =
  if hi = 0 then fnv_lead h lo
  else if hi < 1_000_000 then fnv_six (fnv_lead h hi) lo
  else fnv_six (fnv_six (fnv_lead h (hi / 1_000_000)) (hi mod 1_000_000)) lo

let fnv_int h n =
  if n < 0 then fnv_magnitude (fnv_byte h (Char.code '-')) (-(n / 1_000_000)) (-(n mod 1_000_000))
  else fnv_magnitude h (n / 1_000_000) (n mod 1_000_000)

(* [hash_string (string_of_int a ^ ":" ^ string_of_int b)]: the
   simulators hash every parameter of every configuration they
   evaluate through this. *)
let hash_combine a b = fnv_int (fnv_byte (fnv_int fnv_basis a) (Char.code ':')) b land max_int

let config_hash ~seed ~salt code config =
  let acc = ref (hash_combine seed salt) in
  for i = 0 to Array.length config - 1 do
    acc := hash_combine !acc (hash_combine i (code config.(i)))
  done;
  !acc

let value_code = function
  | Param.Vbool b -> if b then 1 else 0
  | Param.Vtristate x -> 10 + x
  | Param.Vint x -> 100 + x
  | Param.Vcat c -> 20 + c

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

let level_penalty ~level ~neutral ~per_level =
  if level > neutral then -.(float_of_int (level - neutral) *. per_level) else 0.

