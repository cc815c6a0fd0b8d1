(** Streaming CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over strings.

    The durability layer seals on-disk artifacts — checkpoint envelopes,
    ledger [fin] records — with this checksum so [wayfinder fsck] and the
    loaders can tell a bit-flipped or torn file from a valid one with a
    typed error instead of a parse crash (or worse, a silent
    misparse).  Self-contained table-driven implementation: the
    toolchain bakes in no checksum library, and 8 lines of fold beat a
    dependency. *)

type t = int32
(** Running digest state (pre-conditioned; not the final value). *)

val init : t
(** The empty-string state. *)

val update : t -> string -> t
(** Fold a chunk into the digest.  [update (update init a) b] equals
    [update init (a ^ b)] — the streaming property the ledger writer
    relies on to seal without re-reading the file. *)

val update_bytes : t -> bytes -> pos:int -> len:int -> t
(** [update_bytes st b ~pos ~len] is [update st (Bytes.sub_string b pos
    len)] without the copy: a record sealed in place in its own buffer.
    @raise Invalid_argument if the range is not inside [b]. *)

val finish : t -> int32
(** Final CRC-32 value of everything folded in so far. *)

val digest : string -> int32
(** [digest s = finish (update init s)]. *)

val to_hex : int32 -> string
(** Fixed-width 8-digit lowercase hex — the on-disk rendering. *)

val of_hex : string -> int32 option
(** Inverse of {!to_hex}; [None] unless exactly 8 hex digits. *)
