(** Crash-safe storage primitives with a pluggable I/O backend.

    Everything a search leaves behind — checkpoints, run ledgers, JSON
    reports, bench dumps — goes to disk through this layer, so
    crash-consistency is a property the test suite {e proves} over an
    adversarial in-memory backend instead of an assumption about the
    filesystem.

    Two backends ship:

    - {!fs}, the real filesystem: atomic publication is tmp-write +
      flush + [fsync] + rename + directory-[fsync], failures surface as
      the typed {!io_error} (never a bare [Sys_error]), and the [.tmp]
      staging file is removed on {e any} failure — a disk-full error
      does not leave droppings behind.
    - {!Mem}, a deterministic simulated disk that can kill the writer
      at any byte or operation boundary, lose or tear un-fsynced
      writes, roll back un-fsynced renames, and flip bits — the
      substrate of the crash-matrix property tests.

    The write protocol (see DESIGN.md §14): data is staged to
    [path ^ ".tmp"], fsynced, renamed over [path], and the containing
    directory is fsynced so the rename itself is durable.  A crash at
    any point leaves either the complete old file or the complete new
    file at [path] (plus possibly a stray [.tmp], which loaders ignore
    and [wayfinder fsck --repair] removes). *)

(** {1 Typed errors} *)

type io_error = {
  op : string;  (** The primitive that failed: ["write"], ["fsync"], … *)
  path : string;
  reason : string;  (** The underlying OS/simulator message. *)
}

exception Io_error of io_error
(** Raised by backend primitives; the high-level entry points catch it
    and return a [result]. *)

val io_error_to_string : io_error -> string

(** {1 Backends} *)

(** The primitive operations a backend must supply.  High-level
    protocols ([atomic_write], {!Checkpoint.save}) are generic code over
    these, which is what lets the fault backend inject a crash {e
    between} (or inside) any two primitives of a protocol. *)
type backend = {
  name : string;
  read : string -> string;  (** Whole-file read.  @raise Io_error *)
  write : string -> string -> unit;
      (** Create-or-truncate and write, {e buffered}: not durable until
          [fsync].  @raise Io_error *)
  append : string -> string -> unit;
      (** Append, buffered (creates the file if absent).  @raise Io_error *)
  fsync : string -> unit;  (** Make the file's bytes durable.  @raise Io_error *)
  rename : src:string -> dst:string -> unit;
      (** Atomic within the directory, but only durable after
          [fsync_dir].  @raise Io_error *)
  fsync_dir : string -> unit;
      (** Fsync the directory containing [path] (making renames and
          unlinks durable).  Best-effort on filesystems that reject
          directory fsync.  @raise Io_error *)
  remove : string -> unit;  (** Unlink; no-op if absent.  @raise Io_error *)
  exists : string -> bool;
}

val fs : backend
(** The real filesystem, via [Unix]. *)

(** {1 Protocols} *)

val atomic_write : ?backend:backend -> path:string -> string -> (unit, io_error) result
(** Durable atomic publication of [data] at [path]: {!atomic_publish}
    with [keep = 1] (stage to [path ^ ".tmp"], fsync, rename, fsync the
    directory), returning the I/O error instead of raising it.  On
    failure the staging file is removed (best-effort) and the previous
    content of [path], if any, is untouched. *)

val atomic_write_exn : ?backend:backend -> path:string -> string -> unit
(** @raise Io_error instead of returning it. *)

val generation_path : string -> int -> string
(** [generation_path path 0 = path]; [generation_path path i] is
    ["path.i"] for [i >= 1] — the naming scheme of rotated generations. *)

val atomic_publish : ?backend:backend -> ?keep:int -> path:string -> string -> unit
(** The one staged-write protocol, with {e generation rotation}: stage to
    [path ^ ".tmp"], fsync, then (when [keep > 1] and [path] exists)
    shift [path] → [path.1] → … → [path.(keep-1)] before renaming the
    staging file into place and fsyncing the directory.  A crash at any
    boundary leaves a complete generation loadable under some name; a
    failed publish removes the staging file and leaves every existing
    generation untouched.  This is the protocol checkpoints have always
    used ({!Checkpoint.save} is a thin wrapper) and registry entries
    share.
    @raise Io_error on I/O failure (after cleanup).
    @raise Invalid_argument if [keep < 1]. *)

val read_file : ?backend:backend -> string -> (string, io_error) result

(** {1 Background publication} *)

(** Periodic files — checkpoint journals, the Prometheus scrape file —
    written off the caller's thread.  On some disks replacing a file
    costs tens of milliseconds (freeing the old file's blocks), and an
    fsync under write load about as much, so a search that wrote
    synchronously every few rows would spend most of its time waiting
    on the disk.

    A publisher keeps, per path, the jobs not yet started in submission
    order, and one writer thread runs them one at a time.  A whole-file
    publish ({!submit}) replaces the path's newest pending job when that
    is a publish too, so when the disk keeps up every payload is
    published, and when it does not only the newest pending one is; each
    runs an unchanged {!atomic_publish}.  Appends ({!append}) are never
    coalesced or dropped: pending appends with nothing between them are
    written as one batch, in order, and the batch is followed by an
    fsync of the file. *)
module Publisher : sig
  type t

  val create : ?backend:backend -> unit -> t
  (** No thread yet: a writer thread starts on the first {!submit} or
      {!append} and exits when nothing is left to write, so a publisher
      that is never used costs nothing.  The writer touches only the
      submitted payloads and [backend] (default {!fs}). *)

  val submit : t -> ?keep:int -> path:string -> (unit -> string) -> unit
  (** Queue [payload] for {!atomic_publish} at [path] with [keep]
      generations (default 1) and return at once.  The closure runs on
      the writer thread, and never for a payload superseded before its
      publish started.
      @raise Io_error (or whatever else a background job raised),
      instead of queueing, when a background job failed since the last
      {!submit}, {!append} or {!drain} reported a failure: each failure
      is reported once, and only the first of several.
      @raise Invalid_argument if [keep < 1]. *)

  val append : t -> path:string -> string -> unit
  (** Queue [payload] to be appended to [path] (created if absent) and
      return at once.  It lands after every job submitted for [path]
      before it, and before any submitted after it.
      @raise Io_error as {!submit}. *)

  val drain : t -> unit
  (** Wait until nothing is pending or being written.
      @raise Io_error (or whatever else a background job raised)
      if one failed and was not yet reported. *)
end

(** {1 The deterministic fault backend} *)

module Mem : sig
  type fs
  (** A simulated disk: per-file durable prefix tracking, a write-ahead
      of un-fsynced bytes, and an undo log of un-fsynced renames. *)

  exception Crashed
  (** Raised by a primitive when the fault plan's fuel runs out; the
      partial effect of the interrupted primitive (e.g. a torn write's
      prefix) has already been applied. *)

  val create :
    ?fuel:int ->
    ?keep_unsynced:bool ->
    ?keep_renames:bool ->
    unit ->
    fs
  (** [fuel] is the crash budget in simulated I/O cost units: every
      primitive costs 1, and writes/appends additionally cost 1 {e per
      byte}, so sweeping [fuel] over [0 .. total_cost] kills the writer
      at every operation {e and} byte boundary.  No [fuel] means never
      crash.  At crash time, un-fsynced bytes either survive up to the
      kill point ([keep_unsynced = true], the torn-tail case) or are
      lost entirely ([false], the lost-page-cache case); un-fsynced
      renames either survive ([keep_renames = true]) or roll back. *)

  val backend : fs -> backend

  val set_fuel : fs -> int -> unit
  (** Arm (or re-arm) the crash budget — lets a test build a valid
      baseline state with unlimited fuel, then inject the kill into the
      operation under test. *)

  val crash : fs -> unit
  (** Apply the post-crash state: truncate or drop un-fsynced bytes per
      the plan, roll back un-fsynced renames if the plan says so, and
      clear the fuel so recovery code can run against the result. *)

  val cost : fs -> int
  (** Total I/O cost units consumed so far — run the protocol once
      uninterrupted to learn the sweep range for the crash matrix. *)

  val set_file : fs -> string -> string -> unit
  (** God-mode: install durable, fsynced content directly. *)

  val get_file : fs -> string -> string option
  (** Durable content as a post-crash reader would see it. *)

  val list_files : fs -> string list
  (** Paths that currently exist, sorted. *)

  val flip_bit : fs -> string -> int -> unit
  (** Flip bit [i] (0-based over the whole file, MSB-first within each
      byte) of a file's durable content — the fsck corruption seeder.
      @raise Invalid_argument if out of range or the file is absent. *)
end
