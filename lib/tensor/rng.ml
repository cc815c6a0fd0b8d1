(* The SplitMix64 state, in 8 bytes read and written in place: a draw
   that stays inside this module keeps the state unboxed, so [int] and
   [bool] allocate nothing.  A mutable [int64] field would box the new
   state on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] get t = Bytes.get_int64_le t 0
let[@inline] set t s = Bytes.set_int64_le t 0 s

let of_state s =
  let t = Bytes.create 8 in
  set t s;
  t

(* SplitMix64 output function (forward declaration used by [create]): the
   mixing lives in [bits64] below. *)

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  (* Pre-mix the seed through one SplitMix64 step.  Raw small seeds make
     poor initial states: seed 0 starts the Weyl sequence at 0, and
     consecutive seeds differ by a single low bit, so their streams start
     from strongly correlated states.  One mix step diffuses every seed
     bit across the whole state. *)
  of_state (mix64 (Int64.add (Int64.of_int seed) golden_gamma))

let copy = Bytes.copy

let state = get
let set_state = set

(* SplitMix64 output function: advance by the golden gamma, then mix. *)
let[@inline] bits64 t =
  let s = Int64.add (get t) golden_gamma in
  set t s;
  mix64 s

let split t = of_state (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Take 62 high bits (so the value fits OCaml's native int range), modulo
     the bound.  The modulo bias is negligible for the bounds used here. *)
  let raw = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  raw mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits mapped to [0, 1), then scaled. *)
  let raw = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  raw /. 9007199254740992.0 *. bound

let uniform t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

(* [float t 1.0 < p], computed here so that the draw stays unboxed:
   [float]'s result is boxed.  Scaling by [1.0] changes no bit of a
   finite value, so it is left out. *)
let bernoulli t p =
  Int64.to_float (Int64.shift_right_logical (bits64 t) 11) /. 9007199254740992.0 < p

let normal t ?(mu = 0.) ?(sigma = 1.) () =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 0. then draw ()
    else
      let u2 = float t 1.0 in
      sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)
  in
  mu +. (sigma *. draw ())

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  (* Partial Fisher–Yates: only the first [k] slots need to be settled. *)
  let a = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.sub a 0 k
