(** The tracing and metrics front-end.

    A recorder stamps every operation with both clocks (monotonic wall
    time and the platform's virtual clock), aggregates {!Metrics}
    in-process, and fans events out to any attached {!Sink}s.  With no
    sinks attached the per-operation cost is a hashtable update — the
    driver can record unconditionally.

    Spans name the phases of work.  Wall-clock phases (propose, validate,
    model updates) are measured with {!with_span}/{!timed}; phases whose
    duration is *virtual* (simulated build/boot/run seconds) are reported
    after the fact with {!emit_span}.  Every span feeds two histograms,
    [<name>.wall_s] and [<name>.virtual_s] (each only when that duration
    was actually measured), so phase totals fall out of
    {!Metrics.sum}.

    Wall stamps and span wall durations are whole microseconds (the
    resolution of [Unix.gettimeofday]), and the [<name>.wall_s]
    histograms take exactly the durations the span events carry, so a
    profile rebuilt from a trace reconciles with the histograms bit for
    bit. *)

type t

val create :
  ?now:(unit -> float) ->
  ?virtual_now:(unit -> float) ->
  ?sinks:Sink.t list ->
  unit ->
  t
(** [now] defaults to [Unix.gettimeofday]; [virtual_now] defaults to a
    constant 0 until {!set_virtual_now} wires in a real clock.  Event
    wall-clock stamps are offsets from recorder creation (durations are
    differences, so the origin never matters), rounded to whole
    microseconds. *)

val null : unit -> t
(** A fresh sink-less recorder (still aggregates metrics).
    Test hook: tests pass it where a recorder must keep nothing. *)

val set_virtual_now : t -> (unit -> float) -> unit
(** The driver calls this with [fun () -> Vclock.now clock] so events are
    stamped with virtual time. *)

val snapshot : t -> Metrics.snapshot

val incr : t -> ?by:float -> ?quiet:bool -> string -> unit
(** Bump a counter; emits a [Count] event unless [quiet] (default false). *)

val observe : t -> ?quiet:bool -> string -> float -> unit
(** Record a histogram sample; emits a [Sample] event unless [quiet]. *)

val alert : t -> rule:string -> string -> unit
(** Record an alert-rule firing: bumps the [alerts.<rule>] counter and, if
    sinks are attached, emits a typed [Alert] event into the trace. *)

type span

val span_begin : t -> ?attrs:Attr.t -> string -> span
val span_end : t -> ?attrs:Attr.t -> span -> unit
(** Close the span: durations are measured on both clocks, the [Span]
    event carries the begin-time [attrs] followed by the end-time ones,
    and the [<name>.wall_s] (always) and [<name>.virtual_s] (only if
    virtual time advanced) histograms are fed. *)

val with_span : t -> ?attrs:Attr.t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] wraps [f] in a span; if [f] raises, the span is
    closed with an [error=true] attribute and the exception re-raised. *)

val timed : t -> ?attrs:Attr.t -> string -> (unit -> 'a) -> 'a * float
(** Like {!with_span} but also returns the wall-clock seconds [f] took —
    for callers that fold the measurement into their own accounting.
    The returned value is the raw difference of the two clock reads,
    not rounded to microseconds like the span's own duration. *)

val emit_span :
  t -> ?attrs:Attr.t -> ?wall_s:float -> ?virtual_s:float -> string -> unit
(** Report an already-measured span (e.g. the simulator's virtual build
    duration).  Only the durations passed are recorded into the
    corresponding histograms; [wall_s] is rounded to whole microseconds
    first. *)

val flush : t -> unit
