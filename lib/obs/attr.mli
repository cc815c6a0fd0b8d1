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
val int : string -> int -> string * value
val bool : string -> bool -> string * value

val find : t -> string -> value option

val add_json_string : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string literal: double quote and
    backslash escaped, newline, carriage return and tab by name, other
    control bytes as [\u00XX], every other byte verbatim.  The one JSON
    string escaper — the analytics JSON codec renders with it too. *)

val json_of_value : value -> string
(** JSON fragment for a value: strings are escaped and quoted; non-finite
    floats become [null] (JSON has no NaN/infinity). *)

val to_json : t -> string
(** The whole list as a JSON object, e.g. [{"phase":"build","pool":96}]. *)
