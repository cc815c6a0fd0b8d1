(** [wayfinder fsck] — validate every durable artifact a search leaves
    behind: checkpoint journals and their generations (state records
    sealed by a running CRC), run ledgers (fin seals, torn tails), JSON
    reports and JSONL streams, plus stray [.tmp] staging files from
    interrupted atomic writes.

    The scanner classifies each file by name ([*.ckpt], [*.ckpt.N],
    [*.jsonl], [*.json], [*.tmp]) with a content sniff as fallback, so a
    directory of mixed artifacts can be checked in one pass.  A valid
    journal reports its iterations, in-flight tasks and state records;
    one with bytes after its newest valid record is Corrupt.  With
    [repair] it truncates torn ledger tails to the clean prefix
    (re-sealed; the original kept as [path.bak]), truncates a journal to
    its newest valid record (the original kept as [path.bak]),
    quarantines journals with no valid record to [path.bak] (so
    {!Checkpoint.load_latest} falls back past them), and removes stray
    staging files.  Corrupt JSON reports are flagged but never modified
    — there is no prefix semantics to repair them by. *)

type kind =
  | Checkpoint_gen  (** A checkpoint journal: the primary or a rotated generation. *)
  | Ledger
  | Jsonl_stream  (** A schema-headed JSONL file of another kind (trace). *)
  | Json_report  (** A single-document JSON file (analyze / bench output). *)
  | Model_entry
      (** A registry model entry ([*.model], or a rotated generation):
          validated through {!Wayfinder_platform.Registry} — Valid when
          sealed and self-consistent, Unsealed when the body parses but
          the crc trailer is missing, Corrupt otherwise.  [--repair]
          quarantines corrupt entries to [.bak] so lookups skip them. *)
  | Tmp  (** A [.tmp] staging file from an interrupted atomic write. *)

val kind_to_string : kind -> string

type status =
  | Valid
  | Unsealed
      (** A ledger (or stream) without a fin seal: every record parses,
          but the file cannot prove it is complete — the normal state of
          a killed run, reported distinctly from corruption. *)
  | Corrupt
  | Stray  (** A leftover [.tmp] file; loaders ignore it. *)

val status_to_string : status -> string

type finding = {
  path : string;
  kind : kind;
  status : status;
  detail : string;  (** Human diagnosis: row counts, the exact parse error… *)
  action : string option;  (** The repair applied, when [repair] was set. *)
}

type report = {
  findings : finding list;  (** One per scanned file, in scan order. *)
  scanned : int;
  valid : int;
  unsealed : int;
  corrupt : int;
  stray : int;
  repaired : int;
  clean : bool;
      (** No unrepaired corruption remains — the CLI's exit status.
          Unsealed ledgers and (repaired) strays do not dirty a tree. *)
}

val scan : ?repair:bool -> string list -> report
(** Check every file under [paths] (directories are walked recursively,
    in sorted order; files are taken as given).  Unrecognized files —
    and [.bak] quarantine files from an earlier [--repair] — are skipped
    silently.  [repair] defaults to [false] — a plain scan never
    modifies anything. *)

val report_json : report -> Json.t
(** The machine-readable report ([wayfinder fsck --json], uploaded as a
    CI artifact). *)

val finding_to_string : finding -> string
