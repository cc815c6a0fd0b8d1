(** Span and event attributes.

    A small typed key/value vocabulary shared by every trace event: rich
    enough for the platform's needs (names, flags, sizes, durations),
    flat enough to serialise to a single JSON line. *)

type value = String of string | Float of float | Int of int | Bool of bool

type t = (string * value) list
(** Ordered; duplicate keys keep the first binding. *)

val empty : t

(** Binding constructors, e.g. [[Attr.string "phase" "build"; Attr.int "pool" 96]]. *)

val string : string -> string -> string * value
val float : string -> float -> string * value
(** Test hook: tests build float attributes with it. *)

val int : string -> int -> string * value
val bool : string -> bool -> string * value

val find : t -> string -> value option
(** Test hook: test_obs reads attributes back with it. *)

val add_json_string : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string literal: double quote and
    backslash escaped, newline, carriage return and tab by name, other
    control bytes as [\u00XX], every other byte verbatim (a string with
    nothing to escape is copied whole).  The one JSON string escaper —
    the analytics JSON codec renders with it too. *)

val add_int : Buffer.t -> int -> unit
(** [n] in decimal, as [string_of_int] spells it, without allocating. *)

val add_digits : Buffer.t -> int -> int -> unit
(** [add_digits buf width n]: at least [width] decimal digits of
    [n >= 0], zero-padded on the left. *)

val add_number : Buffer.t -> float -> unit
(** The one number writer of every telemetry file (traces, ledgers,
    scrape files).  An integer-valued float below 1e16 in magnitude is
    written as an integer (["42"]; [-0.] as ["-0"]), any other finite
    float with [%.17g], so [float_of_string] reads back the same bits.
    Non-finite values have no common spelling — [null] in traces,
    [NaN]/[Infinity] in ledgers, [+Inf]/[NaN] in scrape files — so each
    caller writes its own and passes only finite values here. *)

val number : float -> string
(** {!add_number} into a fresh string. *)

val add_json_float : Buffer.t -> float -> unit
(** {!add_number}, or [null] for a non-finite value (JSON has no
    NaN/infinity): how traces write every float but their wall stamps. *)

val add_json : Buffer.t -> t -> unit
(** The whole list as a JSON object, e.g. [{"phase":"build","pool":96}]. *)

val json_of_value : value -> string
(** The JSON fragment of a value: strings escaped and quoted, floats
    through {!add_json_float}. *)

val to_json : t -> string
(** {!add_json} into a fresh string.
    Test hook: test_obs checks the attribute rendering with it; sinks render through
    {!Event}. *)
