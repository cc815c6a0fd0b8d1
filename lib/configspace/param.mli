(** Typed OS configuration parameters.

    A parameter unifies the three stages of OS configuration the paper
    specializes (§3.1): compile-time (Kconfig symbols), boot-time (kernel
    command-line), and runtime ([/proc/sys], [/sys]).  Each parameter has a
    kind that fixes its value domain. *)

type stage = Compile_time | Boot_time | Runtime

val stage_to_string : stage -> string
val stage_of_string : string -> stage option

type kind =
  | Kbool
  | Ktristate
  | Kint of { lo : int; hi : int; log_scale : bool }
      (** [log_scale] marks wide ranges that should be sampled by order of
          magnitude (socket buffers, timeouts, ...). *)
  | Kcategorical of string array  (** Fixed value set, e.g. qdisc names. *)

type value = Vbool of bool | Vtristate of int  (** 0 = n, 1 = m, 2 = y *) | Vint of int | Vcat of int
(** Values are immutable and compared structurally.  Every [Vbool],
    in-range [Vtristate] and [Vcat] below 64 that {!sample}, {!perturb},
    {!clamp}, {!value_of_token}, {!value_of_string} and the constructors'
    defaults return is a shared preallocated block, so a stored
    configuration costs one word per such value. *)

type t = {
  name : string;
  stage : stage;
  kind : kind;
  default : value;
  description : string option;
}

val make : ?description:string -> name:string -> stage:stage -> kind:kind -> default:value -> unit -> t
(** @raise Invalid_argument if [default] is ill-typed or out of range for
    [kind]. *)

val bool_param : ?stage:stage -> string -> bool -> t
(** Convenience constructors; [stage] defaults to [Runtime]. *)

val int_param : ?stage:stage -> ?log_scale:bool -> string -> lo:int -> hi:int -> default:int -> t
val categorical_param : ?stage:stage -> string -> string array -> default:int -> t
val tristate_param : ?stage:stage -> string -> int -> t

val value_ok : kind -> value -> bool
(** Type- and range-checks a value against a kind. *)

val clamp : kind -> value -> value
(** Coerce a well-typed value into range (ints clamped, categorical/tristate
    indices wrapped into the domain). *)

val value_equal : value -> value -> bool
val value_to_string : kind -> value -> string
val value_of_string : kind -> string -> value option

val value_token : value -> string
(** Compact kind-independent codec ("b1" / "t2" / "i4096" / "c3") shared
    by checkpoints and run ledgers: decodable without the originating
    space. *)

val value_of_token : string -> value option
(** Total inverse of {!value_token}; [None] on malformed tokens. *)

val float_field : float -> string
(** ["%h"] hex float: every double round-trips bitwise through
    {!float_of_field}, infinities and [-0.] included; a NaN round-trips
    as a NaN of the same sign (the text carries no payload bits).  The
    float codec of every line format: checkpoints, registry entries and
    workload traces. *)

val float_of_field : string -> (float, string) result

val percent_encode : plain:(char -> bool) -> string -> string
(** Escape every byte [plain] rejects as [%XX] (uppercase hex); [s]
    itself when nothing needs escaping.  The one percent codec behind
    canonical space names and the sealed-envelope string fields. *)

val percent_decode : string -> string
(** Inverse of {!percent_encode} for any [plain]: each [%XX] with two hex
    digits becomes its byte, every other byte (a stray [%] included) is
    kept as is. *)

val join_tokens : char -> value array -> string
(** The {!value_token}s joined by the separator, written straight into
    a string of its exact length (no token holds a comma or a space). *)

val config_key : value array -> string
(** Canonical identity of a whole configuration: the comma-joined
    {!value_token}s ([join_tokens ',']).  Injective — two configurations share a key iff they
    are equal position by position — so it is safe to key quarantine
    strikes, dedup sets and checkpoint state on it (unlike
    [Hashtbl.hash], which ignores everything past a bounded prefix). *)

val cardinality : kind -> float
(** Number of possible values (as a float: integer ranges can be large).
    Used to report search-space sizes like the paper's 3.7×10¹³. *)

val sample : t -> Wayfinder_tensor.Rng.t -> value
(** Uniform draw from the parameter's domain; log-scaled ints draw an order
    of magnitude first.  [sample p] computes the constants of the draw (a
    log-scaled int's bounds in log10) once, so a caller that draws the
    same parameter many times keeps the partial application. *)

val perturb : t -> Wayfinder_tensor.Rng.t -> value -> value
(** Local move: flips bools, steps tristates, scales/offsets ints, re-draws
    categorical values.  The result is always in-domain and (when the domain
    has more than one point) different from the input. *)

val pp : Format.formatter -> t -> unit
