(** The line codecs shared by checkpoint journals ({!Checkpoint}) and
    model-registry entries ({!Registry}), and the registry's seal.

    Both formats are [tag rest] lines closed by an [end] marker and a
    [crc XXXXXXXX] line, the CRC-32 of every byte before it.  A registry
    entry is one such envelope ({!seal}, {!unseal}); a checkpoint journal
    is a sequence of them whose crc lines run over the whole file, which
    {!Checkpoint} writes and scans itself.  This module owns the field
    codecs they have in common, so each format only decides which tags
    it writes. *)

module Param = Wayfinder_configspace.Param

(** {1 Field codecs} *)

val float_field : float -> string
(** {!Param.float_field}: ["%h"] hex floats, bitwise round-trip (a NaN
    comes back as a NaN of the same sign). *)

val float_of_field : string -> (float, string) result

val encode_string : string -> string
(** Percent-encode the bytes the line format reserves: [%], tab, [\n],
    [\r] and space.  Total and injective. *)

val decode_string : string -> string
(** Inverse of {!encode_string}: [decode_string (encode_string s) = s]. *)

val config_field : Param.value array -> string
(** Space-joined {!Param.value_token}s; ["."] for the empty configuration,
    so a config field is never the empty string. *)

val config_of_field : string -> (Param.value array, string) result

val split_tag : string -> string * string
(** ["tag rest"] at the first space; a line without a space is
    [(line, "")]. *)

(** {1 The seal} *)

val seal : string -> string
(** [body ^ "crc XXXXXXXX\n"], the CRC-32 of [body].  [body] is expected
    to end in a newline. *)

type unsealed =
  | Sealed of string  (** The trailer verified; the body before it. *)
  | No_trailer
      (** The last line is not a [crc] trailer, or the text does not end
          in exactly one newline after it: unsealed, or torn. *)
  | Corrupt of string
      (** A trailer is present but unreadable or does not match the body. *)

val unseal : string -> unsealed
(** The trailer must be the last line, terminated by the final byte of
    the text; anything after it (even a second newline) leaves the text
    {!No_trailer}. *)
