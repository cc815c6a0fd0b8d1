(** Pluggable event sinks.

    A sink consumes the {!Event.t} stream a {!Recorder} produces.  Two
    are provided: a bounded in-memory ring (tests) and a JSONL writer
    (offline analysis of long unattended runs); a recorder forwards each
    event to all of its sinks, in order.
    Recorders with no sinks still aggregate {!Metrics} — event fan-out is
    strictly opt-in. *)

type t

val make : ?flush:(unit -> unit) -> emit:(Event.t -> unit) -> unit -> t
(** A custom sink.  [flush] defaults to a no-op. *)

val emit : t -> Event.t -> unit
val flush : t -> unit

val schema_version : int
(** Version of the JSONL trace format; bumped on incompatible change. *)

val schema_header : kind:string -> string
(** The self-describing first line every JSONL artifact starts with,
    e.g. [{"wayfinder_schema":1,"kind":"trace"}] (no trailing newline).
    Readers reject unknown versions with a typed error instead of a parse
    crash. *)

val jsonl : ?flush:(unit -> unit) -> (string -> unit) -> t
(** [jsonl write] renders each event as one JSON line (newline included)
    and passes it to [write] — wrap an [out_channel], a [Buffer], or a
    socket.  The {!schema_header} line is written immediately at sink
    creation.  [flush] (default no-op) is invoked by {!val-flush}: pass the
    callback owner's flush so buffered lines reach stable storage — a sink
    whose owner buffers but never flushes loses the tail on crash.
    Test hook: tests stream traces into buffers with it; the CLI writes through
    {!jsonl_channel}. *)

val jsonl_channel : out_channel -> t
(** JSONL straight to a channel; [flush] flushes the channel.  Writes the
    {!schema_header} line at creation. *)

(** Bounded in-memory ring buffer.  When full, the oldest events are
    dropped (and counted) — a test or a live status page wants the recent
    tail, not an unbounded log. *)
module Memory : sig
  type store

  val create : ?capacity:int -> unit -> store
  (** Default capacity 4096 events.  Test hook: tests capture a recorder's
      events with it; no program does. *)

  val sink : store -> t
  (** Test hook: the sink that fills the store. *)

  val events : store -> Event.t list
  (** Oldest retained first.  Test hook: tests read the captured events. *)

  val length : store -> int
  (** Test hook: test_obs checks the capacity bound with it. *)

  val dropped : store -> int
  (** Events evicted by the capacity bound.  Test hook: test_obs checks
      the bound with it. *)

  val clear : store -> unit
  (** Test hook: test_obs empties a store with it. *)
end
