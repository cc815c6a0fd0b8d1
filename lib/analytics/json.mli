(** A minimal self-contained JSON codec for the analytics layer.

    The toolchain has no JSON library baked in, and the ledger needs one
    property an off-the-shelf printer would not promise anyway: {e exact}
    float round-trip.  Numbers render through the telemetry's one number
    writer ({!Wayfinder_obs.Attr.add_number}: integer-valued floats below
    1e16 as plain integers, everything else [%.17g], which reconstructs
    any IEEE-754 double bit-for-bit through [float_of_string]), and
    non-finite floats as the bare tokens [NaN] / [Infinity] /
    [-Infinity] — a documented deviation from RFC 8259, which cannot
    represent them; {!parse} accepts the same tokens.  This is what makes
    the ledger round-trip property ("series recomputed from a ledger are
    byte-identical to series computed live") testable at all.

    The tree ({!t}, {!to_string}) serves the reader and the ledger's
    meta and fin lines; ledger rows are written directly, with
    {!add_number} and the same string escaper, into the bytes their tree
    would render to. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no whitespace); object fields keep their order. *)

val number_to_string : float -> string
(** The float codec used by {!to_string}, exposed for CSV writers that
    need the same exact-round-trip guarantee. *)

val add_number : Buffer.t -> float -> unit
(** {!number_to_string}, written straight into a buffer. *)

val parse : string -> (t, string) result
(** Strict parse of a complete JSON value ([Error] carries a message with
    the byte offset).  Accepts the non-finite tokens {!to_string} emits.
    [\u] escapes are decoded to UTF-8. *)

(** {1 Accessors} — shape-checked projections, [None] on mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option
val to_int : t -> int option
(** [Num] with an integer value only. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
