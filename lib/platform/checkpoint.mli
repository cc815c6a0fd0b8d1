(** Driver checkpoints: kill a search, resume it, get the same answer.

    A checkpoint captures everything the driver needs to continue a search
    as if it had never stopped: the exploration history (every entry,
    configs included), the virtual clock, the budget origin, the RNG
    state, the invalid-proposal streak, the quarantine bookkeeping, the
    tasks that were still {e in flight} on the multi-worker engine's
    virtual evaluation slots when the file was written (since format
    version 2) — and, since format version 3, the shared
    {!Image_cache} contents {e and recency order}, so a killed
    [~workers:n] run resumes mid-batch with the exact warm cache it held
    and reproduces the uninterrupted trajectory exactly.

    Search-algorithm state (DeepTune's network, a GP's observations) is
    deliberately {e not} serialized.  Resume instead {e replays}: the
    algorithm is recreated from the same seed and fed the recorded history
    through its normal [propose]/[observe] path, skipping only the
    (expensive) target evaluations — on a real testbed those are hours of
    VM time; everything else is deterministic, so the rebuilt state is
    bit-identical to the moment the checkpoint was written.  The stored
    RNG state and the replayed proposals double as integrity checks: a
    resume under different flags, seed or code fails loudly instead of
    silently diverging.

    The on-disk format (version 6) is an {e append-only journal} of
    text lines; floats are hex literals ([%h]) so every double
    round-trips exactly.  After the header line come [entry] lines in
    completion order and {e state records}: the non-entry fields, an
    [end] line and a [crc XXXXXXXX] line, the CRC-32 of every byte of
    the file before that line.  A record therefore vouches for every
    entry before it, and counts only when its CRC matches and its
    [iterations] equals the number of entry lines before it.  A run
    writes its journal whole once ({!start}, published like {!save})
    and then only appends: each later save adds the entries completed
    since the previous one and one state record ({!extend}), so a save
    costs O(new rows + state) instead of the whole history.

    Loading scans the file once with a running CRC and returns the
    newest record that verifies, with the entries before it; bytes after
    it (a torn append, a flipped bit) are dropped and reported
    ({!scan}, {!Dropped_tail}).  Older records in the same file are the
    fallback that generation rotation used to provide; rotated
    generations ([path.1], …, written by whole-file saves) are tried
    only when the primary holds no valid record at all
    ({!load_latest}).  Files written by other format versions are
    rejected with {!Unsupported_version} — never an exception. *)

module Space = Wayfinder_configspace.Space

type inflight = {
  index : int;  (** Proposal sequence number (equals [entry.index]). *)
  slot : int;  (** The virtual evaluation slot the task occupies. *)
  start_seconds : float;  (** Clock reading when the task was launched. *)
  entry : History.entry;
      (** The task's precomputed outcome; [entry.at_seconds] is its
          (future) completion time.  Evaluation is a pure function of
          (trial, configuration), so the driver computes the whole
          outcome at launch and only reveals it at completion — which is
          what lets an interrupted task be persisted at all. *)
}

type t = {
  seed : int;
  rng_state : int64;  (** Driver RNG state at checkpoint time (verification). *)
  clock_seconds : float;  (** Virtual clock reading. *)
  budget_start_seconds : float;  (** Clock reading when the run started. *)
  iterations : int;  (** Completed (recorded) evaluations. *)
  workers : int;  (** Virtual evaluation slots of the writing run. *)
  consecutive_invalid : int;
  cache_capacity : int;  (** Image-cache capacity of the writing run. *)
  cache : (string * Image_cache.entry) list;
      (** Shared image-cache contents in recency order, most recently used
          first (exactly {!Image_cache.to_alist}); at most
          [cache_capacity] bindings with distinct keys. *)
  strikes : (string * int) list;
      (** Canonical config key ({!Param.config_key}) → exhausted-retry
          episodes, sorted by key. *)
  quarantined : string list;  (** Quarantined canonical config keys, sorted. *)
  entries : History.entry list;  (** Completion order, oldest first. *)
  inflight : inflight list;  (** Launched but not yet completed tasks. *)
  pareto : (int * float array) list;
      (** Pareto archive of a multi-objective run: [(entry index, raw
          objective vector)] sorted by index (exactly
          {!Pareto.to_list}); empty for scalar runs. *)
  trace_cursor : int option;
      (** Scenario trace position ({!Scenario.cursor}) at checkpoint
          time; [None] when the run had no scenario. *)
}

type error =
  | Unsupported_version of { found : int; expected : int }
      (** The file is a wayfinder checkpoint, but written by a different
          format version. *)
  | Malformed of string  (** Unreadable file or corrupt content. *)

val error_to_string : error -> string

val version : int
(** Current format version: 6.  Files written by earlier versions are
    rejected with {!Unsupported_version} (v2 persisted per-slot baseline
    images instead of the shared cache; v3 keyed quarantine strikes on
    the truncated polymorphic hash, which conflated configurations
    differing past the ~10th parameter; v4 predates objective vectors,
    the Pareto archive and the scenario trace cursor; v5 was one sealed
    envelope that every save rewrote whole, where v6 is the append-only
    journal). *)

val to_string : t -> string
(** The compacted journal: the header, every entry of [t], and one
    state record. *)

(** {1 Appending} *)

type journal
(** What a writer remembers between saves: the running CRC of the bytes
    written so far and the number of entry lines they hold. *)

val start : t -> string * journal
(** [to_string t], and the journal that continues it. *)

val extend : journal -> t -> string * journal
(** The bytes that append a save to a journal — the entry lines of
    [t.entries], which must be exactly the entries completed since the
    journal's previous record (oldest first), then a state record for
    [t] — and the journal after them.  O([t.entries] + state).
    @raise Invalid_argument unless [t.iterations] equals
    {!journal_entries} plus the length of [t.entries]. *)

val journal_entries : journal -> int
(** Entry lines the journal holds. *)

(** {1 Reading} *)

type scan = {
  ck : t;  (** The newest valid state record, with every entry before it. *)
  records : int;  (** Valid state records up to and including that one. *)
  valid_bytes : int;  (** Bytes up to the end of its crc line. *)
  dropped : (int * error) option;
      (** The number of bytes after [valid_bytes], and why the first of
          them did not verify; [None] when the record ends the file. *)
}

val scan : string -> (scan, error) result
(** One pass with a running CRC.  [Error] when the header is not this
    version's, or when no state record verifies. *)

val of_string : string -> (t, error) result
(** {!scan}'s state: the newest valid record, any bytes after it dropped
    silently. *)

val generation_path : string -> int -> string
(** [generation_path path 0 = path]; [generation_path path i] is
    ["path.i"] for [i >= 1]. *)

val max_generations : int
(** The probe window of {!load_latest}: 64. *)

val save : ?backend:Durable.backend -> ?keep:int -> path:string -> t -> unit
(** Durable atomic publish of {!to_string} via [backend] (default
    {!Durable.fs}): stage to [path ^ ".tmp"], fsync, rotate generations
    when [keep > 1] ([path] → [path.1] → … up to [path.(keep-1)]),
    rename into place, fsync the directory.  A crash at any boundary
    leaves a complete generation loadable by {!load_latest}; a failed
    write removes the staging file and leaves every existing generation
    untouched.  Only these whole-file saves rotate generations; appends
    ({!extend}) never do.
    @raise Durable.Io_error on I/O failure (after cleanup).
    @raise Invalid_argument if [keep < 1]. *)

val load : path:string -> (t, error) result
(** {!load_from} on the real filesystem. *)

val load_from : backend:Durable.backend -> path:string -> (t, error) result

type notice =
  | Recovered_from_generation of {
      generation : int;  (** The generation that validated (1 = [path.1] …). *)
      loaded_from : string;
      dropped : (string * error) list;
          (** Newer generations that exist but hold no valid state
              record, newest first — the evidence for the fallback —
              then the bytes dropped after the newest valid record of
              [loaded_from] itself, if it had any. *)
    }
      (** Surfaced by {!load_latest} when the primary holds no valid
          record; [wayfinder run --resume] prints it instead of dying on
          a corrupt primary. *)
  | Dropped_tail of {
      loaded_from : string;
      valid_bytes : int;  (** Bytes up to the end of the record loaded. *)
      dropped_bytes : int;  (** Bytes after it, ignored. *)
      reason : error;  (** Why the first of them did not verify. *)
    }
      (** The primary loaded, but not to its last byte: a torn append
          or a damaged later record.  Printed like the generation
          notice. *)

val notice_to_string : notice -> string

val load_latest :
  ?backend:Durable.backend -> string -> (t * notice option, error) result
(** Load the newest valid state record: from [path], or, when [path]
    holds none, from [path.1], [path.2], … within {!max_generations}.
    [None] notice means the primary loaded to its last byte.  [Error]
    carries the {e primary}'s error when no generation holds a valid
    record, or {!Malformed} when no generation exists at all. *)
