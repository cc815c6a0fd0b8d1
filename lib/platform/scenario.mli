(** Scenario state: a workload trace plus the search's position in it.

    A scenario connects the driver to a trace-replay target.  The
    driver advances the cursor by [stride] windows once per real
    evaluation launched (replayed, cache-served, and invalid proposals
    do not consume trace time), and the target reads the cursor at
    evaluation time to pick which slice of the trace the trial replays.
    With [stride = 0] (the default) every trial replays the same slice
    — a stationary scenario; with [stride > 0] the workload shifts
    under the search as it would under live traffic.

    Launches are ordered by proposal index in both driver loops, so the
    cursor sequence — and therefore every evaluation — is deterministic
    across worker counts.  The cursor is persisted in checkpoint
    format 5 and restored on resume, keeping kill-and-resume runs
    bitwise identical. *)

type t

val create : ?stride:int -> ?span:int -> ?cursor:int -> Wayfinder_simos.Trace.t -> t
(** [span] is the number of windows each evaluation replays (default:
    the whole trace).  @raise Invalid_argument on negative [stride],
    negative [cursor], or non-positive [span]. *)

val cursor : t -> int

val set_cursor : t -> int -> unit
(** @raise Invalid_argument on a negative cursor — a corrupted or
    hand-edited checkpoint must be rejected at the boundary, not crash
    deep inside replay. *)

val advance : t -> unit

val slice : t -> Wayfinder_simos.Trace.t
(** The trace slice the next evaluation should replay: [span] windows
    starting at [cursor mod length], wrapping around the trace.  The
    empty trace slices to itself. *)
