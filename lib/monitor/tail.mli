(** Follow-mode ledger reader: file polling over
    {!Wayfinder_analytics.Ledger}'s incremental reader.

    Polls a growing JSONL ledger: each {!step} feeds the reader every
    line whose terminating newline has reached the disk since the
    previous step — a writer killed mid-record never yields a
    half-parsed row (the torn fragment stays pending until the file
    grows past it).  Parsing, drops and seal verification are the
    reader's, so a tail and a whole-file salvage of the same bytes agree
    drop for drop.

    A tail that starts at byte 0 fully verifies a [fin] seal
    ({!Sealed}); a tail {!resume}d mid-file can check the seal's row
    count but not its checksum ({!Sealed_unverified}).  A file that
    shrinks under the reader (truncation/rewrite) resets the tail to the
    beginning and is flagged in the step result. *)

module A = Wayfinder_analytics

type seal = A.Ledger.seal =
  | Unsealed  (** No [fin] yet — a live or killed run. *)
  | Sealed  (** [fin] present, row count and CRC both verified. *)
  | Sealed_unverified
      (** [fin] present with matching row count, but the tail resumed
          mid-file so the CRC could not be recomputed. *)

type t

type step = {
  rows : A.Ledger.row list;  (** Newly completed rows, in file order. *)
  drops : A.Ledger.drop list;  (** Newly dropped lines, in file order. *)
  truncated : bool;
      (** The file shrank since the last step; the tail restarted from
          byte 0 and [rows]/[drops] re-deliver from the beginning. *)
}

val create : string -> t
(** Tail from byte 0.  No I/O happens until {!step}. *)

val resume :
  ?rows_read:int -> path:string -> offset:int -> meta:A.Ledger.meta -> unit -> t
(** Tail from a byte offset inside the row region, for a caller that
    already consumed the prefix (and its meta record).  [rows_read]
    (default 0) is the number of iter rows in the consumed prefix, so a
    later [fin] seal's row count can still be checked.  Drop line
    numbers are then relative to the resume point, and a seal can only
    verify as {!Sealed_unverified}.
    Test hook: only test_monitor calls it; [wayfinder watch] tails every ledger from its
    start. *)

val step : t -> (step, A.Ledger.error) result
(** Read and parse everything new.  [Error] on a missing/unreadable
    file, a foreign or damaged header, or a damaged meta line. *)

val meta : t -> A.Ledger.meta option
(** The meta record, once the second line has been read. *)

val seal : t -> seal
val offset : t -> int
(** Bytes consumed (complete lines only).
    Test hook: test_monitor resumes a tail from it. *)

val rows_read : t -> int
(** Test hook: test_monitor resumes a tail from it. *)

val dropped : t -> int
