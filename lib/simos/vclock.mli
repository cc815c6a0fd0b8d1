(** Virtual time, with a discrete-event scheduler.

    The paper's experiments are bounded by wall-clock budgets (3-hour
    searches, 60–80 s per configuration evaluation).  Real kernel builds
    and benchmark runs are simulated here, so their durations are virtual:
    the platform advances this clock by each task's modelled duration, and
    budget experiments (Figures 9–11) become deterministic and fast.

    The scheduler half models virtual {e concurrency}: pending completions
    sit in a min-heap, and {!run_next} advances [now] to the earliest
    finishing task before running its callback.  Ties are broken by
    scheduling order (FIFO), so a multi-worker simulation is fully
    deterministic. *)

type t

val create : unit -> t
(** Starts at 0 s, with no pending events. *)

val now : t -> float
(** Seconds since creation. *)

val advance : t -> float -> unit
(** Test hook: tests drive the clock by hand with it.
    @raise Invalid_argument on negative durations. *)

val on_advance : t -> (float -> unit) -> unit
(** Subscribe to advancement: each registered observer is called with the
    (non-negative) delta of every subsequent {!advance} (or
    {!advance_to}, or event completion), in registration order.  This is
    how the observability layer meters virtual time without the clock
    depending on it.  Observers survive {!reset} (the reset itself is not
    reported). *)

val schedule : t -> at:float -> (unit -> unit) -> float
(** [schedule t ~at run] enqueues a completion at absolute time [at]
    (returned for convenience).  Events never run spontaneously: the
    owner drains them with {!run_next}.
    @raise Invalid_argument if [at] precedes [now] or is NaN. *)

val schedule_chain : t -> deltas:float list -> (unit -> unit) -> float
(** [schedule_chain t ~deltas run] enqueues a completion whose time is
    the left fold [now +. d1 +. d2 +. …] — the exact float a synchronous
    caller advancing delta by delta would reach (float addition is not
    associative, so the fold order matters).  Returns the completion
    time.  If the clock has not moved when the event is popped,
    {!run_next} replays the chain delta by delta, so observers see the
    identical advance stream; otherwise it jumps to the completion time
    with a single delta.
    @raise Invalid_argument on negative or NaN deltas. *)

val run_next : t -> bool
(** Pop the earliest pending event (FIFO among ties), advance the clock
    to its completion time, run its callback.  [false] when no events are
    pending. *)
