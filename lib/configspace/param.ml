module Rng = Wayfinder_tensor.Rng

type stage = Compile_time | Boot_time | Runtime

let stage_to_string = function
  | Compile_time -> "compile-time"
  | Boot_time -> "boot-time"
  | Runtime -> "runtime"

let stage_of_string = function
  | "compile-time" | "compile" -> Some Compile_time
  | "boot-time" | "boot" -> Some Boot_time
  | "runtime" | "run" -> Some Runtime
  | _ -> None

type kind =
  | Kbool
  | Ktristate
  | Kint of { lo : int; hi : int; log_scale : bool }
  | Kcategorical of string array

type value = Vbool of bool | Vtristate of int | Vint of int | Vcat of int

type t = {
  name : string;
  stage : stage;
  kind : kind;
  default : value;
  description : string option;
}

(* The small values are shared: every [Vbool], [Vtristate] in range and
   [Vcat] below [shared_cats] that the samplers, moves and parsers return
   is one of these preallocated blocks, so a stored configuration costs
   one word per such value instead of three.  Values are immutable and
   compared structurally, so sharing changes no result.  [vbool] indexes
   rather than branches: a branch on a random draw mispredicts half the
   time (drawing a sim-linux configuration took 30% longer with one). *)
let vbool_false = Vbool false
let vbool_true = Vbool true
let vbools = [| vbool_false; vbool_true |]
let vbool b = Array.unsafe_get vbools (Bool.to_int b)
let vtristates = [| Vtristate 0; Vtristate 1; Vtristate 2 |]
let vtristate t = if t >= 0 && t <= 2 then Array.unsafe_get vtristates t else Vtristate t
let shared_cats = 64
let vcats = Array.init shared_cats (fun i -> Vcat i)
let vcat i = if i >= 0 && i < shared_cats then Array.unsafe_get vcats i else Vcat i

let value_ok kind v =
  match (kind, v) with
  | Kbool, Vbool _ -> true
  | Ktristate, Vtristate t -> t >= 0 && t <= 2
  | Kint { lo; hi; _ }, Vint i -> i >= lo && i <= hi
  | Kcategorical choices, Vcat i -> i >= 0 && i < Array.length choices
  | (Kbool | Ktristate | Kint _ | Kcategorical _), _ -> false

let clamp kind v =
  match (kind, v) with
  | Kbool, Vbool b -> vbool b
  | Ktristate, Vtristate t -> vtristate (max 0 (min 2 t))
  | Kint { lo; hi; _ }, Vint i -> Vint (max lo (min hi i))
  | Kcategorical choices, Vcat i ->
    let n = Array.length choices in
    if n = 0 then vcat 0 else vcat (((i mod n) + n) mod n)
  | (Kbool | Ktristate | Kint _ | Kcategorical _), _ ->
    invalid_arg "Param.clamp: value kind mismatch"

let make ?description ~name ~stage ~kind ~default () =
  if not (value_ok kind default) then
    invalid_arg (Printf.sprintf "Param.make: ill-typed or out-of-range default for %s" name);
  { name; stage; kind; default; description }

let bool_param ?(stage = Runtime) name default =
  make ~name ~stage ~kind:Kbool ~default:(vbool default) ()

let int_param ?(stage = Runtime) ?(log_scale = false) name ~lo ~hi ~default =
  if lo > hi then invalid_arg "Param.int_param: lo > hi";
  make ~name ~stage ~kind:(Kint { lo; hi; log_scale }) ~default:(Vint default) ()

let categorical_param ?(stage = Runtime) name choices ~default =
  if Array.length choices = 0 then invalid_arg "Param.categorical_param: empty choice set";
  make ~name ~stage ~kind:(Kcategorical choices) ~default:(vcat default) ()

let tristate_param ?(stage = Compile_time) name default =
  make ~name ~stage ~kind:Ktristate ~default:(vtristate default) ()

let value_equal a b =
  match (a, b) with
  | Vbool x, Vbool y -> x = y
  | Vtristate x, Vtristate y -> x = y
  | Vint x, Vint y -> x = y
  | Vcat x, Vcat y -> x = y
  | (Vbool _ | Vtristate _ | Vint _ | Vcat _), _ -> false

(* Kind-independent compact codec ("b1", "t2", "i4096", "c3") — the
   serialisation checkpoints and run ledgers share.  Unlike
   {!value_to_string} it needs no kind to decode, so artifacts remain
   parseable without the space that produced them.  A token is a tag
   character and a number as [string_of_int] prints it; tokens and keys
   are written straight into a string of the exact length. *)
let token_tag = function Vbool _ -> 'b' | Vtristate _ -> 't' | Vint _ -> 'i' | Vcat _ -> 'c'
let token_number = function Vbool b -> Bool.to_int b | Vtristate n | Vint n | Vcat n -> n

(* Decimal digits of [m <= 0]; the non-positive side holds [min_int]. *)
let rec digits m = if m <= -10 then 1 + digits (m / 10) else 1

let token_length v =
  let n = token_number v in
  if n < 0 then 2 + digits n else 1 + digits (-n)

(* Writes [v]'s token to end just before [stop]; returns where it
   starts. *)
let write_token b stop v =
  let n = token_number v in
  let m = ref (if n < 0 then n else -n) and p = ref (stop - 1) in
  Bytes.set b !p (Char.unsafe_chr (48 - (!m mod 10)));
  m := !m / 10;
  while !m < 0 do
    decr p;
    Bytes.set b !p (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  if n < 0 then begin
    decr p;
    Bytes.set b !p '-'
  end;
  decr p;
  Bytes.set b !p (token_tag v);
  !p

(* Boolean tokens are shared constants: ledger rows keep their tokens. *)
let value_token = function
  | Vbool b -> if b then "b1" else "b0"
  | (Vtristate _ | Vint _ | Vcat _) as v ->
    let length = token_length v in
    let b = Bytes.create length in
    ignore (write_token b length v);
    Bytes.unsafe_to_string b

let float_field = Printf.sprintf "%h"

let float_of_field s =
  match float_of_string_opt s with Some f -> Ok f | None -> Error ("bad float field " ^ s)

let percent_encode ~plain s =
  if String.for_all plain s then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if plain c then Buffer.add_char buf c
        else Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
      s;
    Buffer.contents buf
  end

let percent_decode s =
  if not (String.contains s '%') then s
  else begin
    let hex c =
      match c with
      | '0' .. '9' -> Some (Char.code c - 48)
      | 'A' .. 'F' -> Some (Char.code c - 55)
      | 'a' .. 'f' -> Some (Char.code c - 87)
      | _ -> None
    in
    let n = String.length s in
    let buf = Buffer.create n in
    let rec go i =
      if i < n then
        match if s.[i] = '%' && i + 2 < n then (hex s.[i + 1], hex s.[i + 2]) else (None, None) with
        | Some hi, Some lo ->
          Buffer.add_char buf (Char.chr ((hi * 16) + lo));
          go (i + 3)
        | _ ->
          Buffer.add_char buf s.[i];
          go (i + 1)
    in
    go 0;
    Buffer.contents buf
  end

(* Canonical, collision-free identity of a whole configuration: the
   comma-joined value tokens.  Tokens contain no commas and [value_token]
   is injective on values, so two configurations share a key iff they are
   equal position by position — unlike [Hashtbl.hash], which only examines
   a bounded prefix of the structure and silently conflates configurations
   that differ past the ~10th parameter. *)
let join_tokens sep config =
  let length = Array.fold_left (fun acc v -> acc + 1 + token_length v) (-1) config in
  let b = Bytes.create (Int.max 0 length) in
  let stop = ref length in
  for i = Array.length config - 1 downto 0 do
    stop := write_token b !stop config.(i);
    if i > 0 then begin
      decr stop;
      Bytes.set b !stop sep
    end
  done;
  Bytes.unsafe_to_string b

let config_key = join_tokens ','

let value_of_token s =
  if String.length s < 2 then None
  else
    let body = String.sub s 1 (String.length s - 1) in
    match (s.[0], int_of_string_opt body) with
    | 'b', Some 0 -> Some vbool_false
    | 'b', Some 1 -> Some vbool_true
    | 't', Some i -> Some (vtristate i)
    | 'i', Some n -> Some (Vint n)
    | 'c', Some i -> Some (vcat i)
    | _ -> None

let value_to_string kind v =
  match (kind, v) with
  | _, Vbool b -> if b then "1" else "0"
  | _, Vtristate 0 -> "n"
  | _, Vtristate 1 -> "m"
  | _, Vtristate _ -> "y"
  | _, Vint i -> string_of_int i
  | Kcategorical choices, Vcat i when i >= 0 && i < Array.length choices -> choices.(i)
  | _, Vcat i -> string_of_int i

let value_of_string kind s =
  match kind with
  | Kbool -> (
    match s with
    | "1" | "true" | "y" | "yes" | "on" -> Some vbool_true
    | "0" | "false" | "n" | "no" | "off" -> Some vbool_false
    | _ -> None)
  | Ktristate -> (
    match s with
    | "n" | "0" -> Some (vtristate 0)
    | "m" | "1" -> Some (vtristate 1)
    | "y" | "2" -> Some (vtristate 2)
    | _ -> None)
  | Kint { lo; hi; _ } -> (
    match int_of_string_opt s with
    | Some i when i >= lo && i <= hi -> Some (Vint i)
    | Some _ | None -> None)
  | Kcategorical choices -> (
    let rec find i =
      if i >= Array.length choices then None
      else if String.equal choices.(i) s then Some (vcat i)
      else find (i + 1)
    in
    find 0)

let cardinality = function
  | Kbool -> 2.
  | Ktristate -> 3.
  | Kint { lo; hi; _ } -> float_of_int (hi - lo + 1)
  | Kcategorical choices -> float_of_int (Array.length choices)

let sample p =
  match p.kind with
  | Kbool -> fun rng -> vbool (Rng.bool rng)
  | Ktristate -> fun rng -> vtristate (Rng.int rng 3)
  | Kint { lo; hi; log_scale } when log_scale && hi > 0 ->
    (* Uniform over orders of magnitude between lo and hi, then uniform
       within the chosen decade.  The bounds' log10 are constants of the
       parameter, taken once per [sample p]. *)
    let log_lo = log10 (float_of_int (max 1 lo)) and log_hi = log10 (float_of_int (max 1 hi)) in
    fun rng ->
      let x = 10. ** Rng.uniform rng log_lo log_hi in
      Vint (max lo (min hi (int_of_float x)))
  | Kint { lo; hi; _ } -> fun rng -> Vint (Rng.int_in rng lo hi)
  | Kcategorical choices ->
    let n = Array.length choices in
    fun rng -> vcat (Rng.int rng n)

let perturb p rng v =
  match (p.kind, v) with
  | Kbool, Vbool b -> vbool (not b)
  | Ktristate, Vtristate t ->
    let delta = if Rng.bool rng then 1 else -1 in
    let t' = t + delta in
    vtristate (if t' < 0 then 1 else if t' > 2 then 1 else t')
  | Kint { lo; hi; log_scale }, Vint i ->
    if lo = hi then Vint lo
    else begin
      let candidate =
        if log_scale then begin
          let factor = Rng.choice rng [| 0.1; 0.5; 2.; 10. |] in
          int_of_float (float_of_int (max 1 i) *. factor)
        end
        else begin
          let span = max 1 ((hi - lo) / 10) in
          i + Rng.int_in rng (-span) span
        end
      in
      let clamped = max lo (min hi candidate) in
      if clamped = i then Vint (if i < hi then i + 1 else i - 1) else Vint clamped
    end
  | Kcategorical choices, Vcat i ->
    let n = Array.length choices in
    if n <= 1 then vcat 0
    else begin
      let j = Rng.int rng (n - 1) in
      vcat (if j >= i then j + 1 else j)
    end
  | (Kbool | Ktristate | Kint _ | Kcategorical _), _ ->
    invalid_arg "Param.perturb: value kind mismatch"

let pp ppf p =
  let kind_str =
    match p.kind with
    | Kbool -> "bool"
    | Ktristate -> "tristate"
    | Kint { lo; hi; log_scale } ->
      Printf.sprintf "int[%d..%d]%s" lo hi (if log_scale then " (log)" else "")
    | Kcategorical choices -> Printf.sprintf "categorical{%s}" (String.concat "," (Array.to_list choices))
  in
  Format.fprintf ppf "%s (%s, %s, default %s)" p.name (stage_to_string p.stage) kind_str
    (value_to_string p.kind p.default)
