(** The run ledger — a versioned, self-describing JSONL record of a
    search run, one line per completed iteration.

    Layout:
    - line 1: the shared schema header
      [{"wayfinder_schema":N,"kind":"ledger"}] ({!Wayfinder_obs.Sink});
    - line 2: a [meta] record — algorithm name, metric (name, unit,
      direction), seed, and the space's parameter names and stages in
      positional order;
    - every further line: an [iter] record — the configuration as
      kind-independent value tokens ({!Wayfinder_configspace.Param.value_token}),
      the outcome (value / typed failure and its class), the virtual
      timings, the built flag, and the searcher's pre-evaluation
      {!Wayfinder_platform.Search_algorithm.belief} when the algorithm
      stated one.

    Floats are written with the exact-round-trip codec of {!Json}, so a
    ledger read back yields bit-identical numbers — the property the
    analytics conformance tests pin.  The header, meta and [fin] lines
    are rendered from {!Json} trees; iter lines are written directly
    into a reused buffer, byte for byte what their tree would give.

    A cleanly closed ledger additionally ends with a [fin] {e seal}:
    [{"type":"fin","rows":N,"crc":"xxxxxxxx"}], the row count plus a
    CRC-32 over every preceding byte of the file.  The seal lets a
    reader (and [wayfinder fsck]) distinguish a complete file from a
    truncated or bit-flipped one; a ledger {e without} a seal is still
    valid — a killed run is the normal case — and is reported as
    {!t.sealed}[ = false].  Read errors are anchored to the exact line
    and byte offset where parsing stopped, and {!salvage} recovers the
    fully-written prefix of a torn or corrupt file with per-drop
    diagnostics. *)

module Param = Wayfinder_configspace.Param
module Space = Wayfinder_configspace.Space
module History = Wayfinder_platform.History
module Metric = Wayfinder_platform.Metric
module Failure = Wayfinder_platform.Failure
module Search_algorithm = Wayfinder_platform.Search_algorithm

type error =
  | Missing_header  (** Line 1 is not a wayfinder schema header. *)
  | Unsupported_schema of int
      (** Header carries a version this build does not read. *)
  | Malformed of string  (** Anything else, with a line-anchored message. *)

val error_to_string : error -> string

type row = {
  index : int;
  tokens : string array;  (** {!Param.value_token} per position. *)
  value : float option;
  failure : Failure.t option;
  at_seconds : float;
  eval_seconds : float;
  built : bool;
  decide_seconds : float;
  belief : Search_algorithm.belief option;
  objectives : float array option;
      (** Raw objective vector (the row's ["obj"] key) for
          multi-objective runs; [None] on scalar rows.  The key is only
          emitted when present, so scalar ledgers are byte-identical to
          pre-objective ones. *)
}

type meta = {
  algo : string;
  metric : Metric.t;
  seed : int option;
  params : (string * Param.stage) list;  (** Positional (name, stage). *)
  objectives : Metric.t list;
      (** Objective spec of a multi-objective run (the meta
          ["objectives"] key), in vector order; [[]] for scalar runs. *)
}

type t = {
  meta : meta;
  rows : row list;
  sealed : bool;
      (** The file ended with a verified [fin] seal: row count matched
          and the CRC-32 over every preceding byte checked out.  [false]
          for a ledger whose writer was killed before [close_writer] —
          a normal, fully usable ledger that simply cannot prove it is
          complete. *)
}

val row_of_entry : History.entry -> Search_algorithm.belief option -> row
(** The exact row {!record} writes — exposed so live analytics can build
    the same rows without a file round-trip. *)

val row_line : row -> string
(** The row's iter line, without its newline: the row written directly,
    with the bytes {!Json.to_string} gives the row as a tree.
    Test hook: test_analytics pins it to the row renderer kept in test/oracle.ml;
    writers render every row through it. *)

(** {1 Writing} *)

type writer

val create_writer :
  ?seed:int ->
  ?objectives:Metric.t list ->
  algo:string ->
  space:Space.t ->
  metric:Metric.t ->
  string ->
  writer
(** Opens (truncating) the path and writes the header and meta lines.
    [objectives] (default [[]]) declares the objective spec recorded in
    the meta line of a multi-objective run. *)

val reopen_writer :
  ?seed:int ->
  ?objectives:Metric.t list ->
  algo:string ->
  space:Space.t ->
  metric:Metric.t ->
  entries:History.entry list ->
  string ->
  (writer, error) result
(** Reopens the ledger of a run resumed from a checkpoint with these
    completed [entries].  The header and meta must be the bytes
    {!create_writer} writes for the same arguments, and the first rows
    [entries] on every field but [decide_s] and [belief].  Those lines
    are kept byte for byte, the rest (later rows, a torn tail, the seal)
    dropped by one atomic rewrite.  On [Error] the file is untouched. *)

val record : writer -> History.entry -> Search_algorithm.belief option -> unit
(** Appends one iter line and flushes — a crashed run keeps every
    completed iteration.  The signature matches the driver's [?on_record]
    callback: [Driver.run ~on_record:(Ledger.record w)].
    @raise Invalid_argument on a closed writer. *)

val record_row : writer -> row -> unit
(** {!record} for a row already built with {!row_of_entry}, for a caller
    that hands the same row to live analytics too. *)

val close_writer : writer -> unit
(** Writes the [fin] seal (row count + CRC-32 over every byte written)
    and closes the channel.  Idempotent. *)

val to_string : t -> string
(** The bytes a writer produces for [t]: header, meta, one line per row,
    and a [fin] seal when [t.sealed].  [of_string (to_string t)] reads
    back [t].
    Test hook: test_durable's fuzz re-encodes every ledger it reads back with it; no
    program writes a ledger whole. *)

(** {1 Reading} *)

val load : string -> (t, error) result
val of_string : string -> (t, error) result
val of_lines : string list -> (t, error) result
(** Blank lines between records are tolerated; an unknown schema version
    is rejected with {!Unsupported_schema} before any row is parsed.
    {!Malformed} messages name the line number and byte offset where
    parsing stopped (["line 17 (byte 2310): ..."]).
    Test hook: test_analytics reads hand-built line lists with it; {!of_string} is built
    on it. *)

(** {1 Salvage}

    Recovery for torn or corrupt ledgers: keep every parseable record,
    report every dropped line with its position and reason, and expose
    the {e clean prefix} — the bytes up to the first damage — which is
    what [wayfinder fsck --repair] truncates to. *)

type drop = {
  line : int;  (** 1-based line number of the dropped line. *)
  offset : int;  (** Byte offset of the start of the dropped line. *)
  reason : string;
}

type salvage = {
  ledger : t;  (** Every row that parsed, in file order; [sealed] only
                   if a valid fin seal was present. *)
  dropped : drop list;  (** In file order; empty for a healthy file. *)
  clean_prefix_rows : int;
      (** Rows strictly before the first drop (or fin seal). *)
  clean_prefix_bytes : int;
      (** Bytes strictly before the first drop (or fin seal) — always a
          whole number of lines. *)
}

val salvage : string -> (salvage, error) result
(** Lenient load from a path.  [Error] only when the header or meta line
    is unreadable — without the meta record the rows cannot be
    interpreted, so such a file is unsalvageable. *)

val salvage_string : string -> (salvage, error) result

val repair_string : string -> (string * salvage, error) result
(** The repaired file content: the clean prefix re-sealed with a fresh
    [fin] record over exactly those bytes — plus the salvage report that
    produced it.  Loading the repaired content always yields a sealed
    ledger with [clean_prefix_rows] rows. *)

(** {1 Incremental reading}

    The one reader behind {!of_string}, {!load}, {!salvage} and the
    follow-mode [Monitor.Tail].  It consumes a ledger one complete line
    at a time and keeps the phase (header, meta, rows), the byte offset
    and line number, a streaming CRC-32, the rows, the positioned drops,
    the seal and the clean prefix.  Body damage becomes a {!drop}; only
    header or meta damage (or an unknown schema) is an error.  The
    whole-file readers fold it: {!of_string} strictly, where the first
    drop is the [line N (byte M): ...] error, and {!salvage_string}
    leniently. *)

type seal =
  | Unsealed  (** No [fin] yet — a live or killed run. *)
  | Sealed  (** [fin] present, row count and CRC both verified. *)
  | Sealed_unverified
      (** [fin] present with a matching row count, read by a reader
          resumed mid-file, which cannot recompute the CRC. *)

type reader

val reader : unit -> reader
(** A reader at byte 0, expecting the schema header. *)

val resume_reader : rows_read:int -> offset:int -> meta -> reader
(** A reader at byte [offset] inside the row region, for a caller that
    already consumed the prefix (and its meta record).  [rows_read] is
    the number of iter rows in that prefix, so a later
    [fin] seal's row count can still be checked.  Line numbers count from
    the resume point. *)

val feed : reader -> string -> (unit, error) result
(** Consume one complete line, without its newline.  On [Error] the
    line is not consumed. *)

val take : reader -> row list * drop list
(** The rows and drops fed since the previous [take], in file order. *)

val reader_meta : reader -> meta option
val reader_seal : reader -> seal

val reader_offset : reader -> int
(** Bytes consumed. *)

val reader_rows : reader -> int
(** Iter rows consumed in total ([rows_read] included). *)

val reader_drops : reader -> int
