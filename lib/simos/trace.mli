(** Versioned, deterministic workload traces.

    A trace is a sequence of load windows: every window lasts
    [window_s] virtual seconds and offers [loads.(i)] requests per
    second.  Traces are the scenario input to {!Trace_replay}: they let
    the simulator drive an application's analytic model through
    time-varying load (diurnal curves, flash crowds, ramps, step
    phases) instead of the static workloads of {!Workload}.

    The on-disk format is line-oriented text, versioned by a header so
    future revisions can evolve without ambiguity:

    {v
    wayfinder-trace 1
    window <float>
    load <float>
    load <float>
    ...
    v}

    Floats are printed with [%h] (hexadecimal significand), so
    [of_string (to_string t) = Ok t] holds bitwise for every valid
    trace — the codec round-trip is exact, not approximate.

    All builders are pure functions of their arguments (jitter is
    drawn from an explicit seed), so the same call always yields the
    same trace. *)

type t = {
  window_s : float;  (** duration of each window, virtual seconds; > 0 *)
  loads : float array;  (** offered load per window, requests/second; finite, >= 0 *)
}

val duration_s : t -> float
(** Total virtual time covered: [window_s *. float (Array.length loads)]. *)

val validate : t -> (unit, string) result
(** [Ok ()] iff [window_s] is finite and positive and every load is
    finite and non-negative.  An empty [loads] array is valid: the
    empty trace replays to an empty sample set.
    Test hook: test_trace checks the invariants with it. *)

val equal : t -> t -> bool
(** Structural equality, bitwise on floats (NaN-safe via
    [Int64.bits_of_float]).
    Test hook: test_trace compares round-tripped traces with it. *)

(** {1 Codec} *)

val to_string : t -> string
(** Serialize to the versioned text format above.
    Test hook: test_trace checks the codec round trip with it. *)

val of_string : string -> (t, string) result
(** Parse; rejects unknown versions, malformed lines, and traces that
    fail {!validate}.
    Test hook: test_trace checks the codec round trip with it; {!load} reads files
    through it. *)

val save : path:string -> t -> (unit, string) result
(** Test hook: test_trace writes the files {!load} reads back. *)

val load : path:string -> (t, string) result

(** {1 Builders}

    Every builder validates its result and raises [Invalid_argument]
    on nonsensical inputs (negative loads, zero windows with positive
    load shapes, etc.), so a built trace always passes {!validate}. *)

val constant : window_s:float -> windows:int -> float -> t
(** [windows] copies of the given load.
    Test hook: test_trace builds flat traces with it. *)

val diurnal :
  ?jitter:float ->
  ?seed:int ->
  window_s:float ->
  windows:int ->
  base:float ->
  peak:float ->
  unit ->
  t
(** One sinusoidal day: load swings from [base] (trough) to [peak]
    (crest) over the trace, peaking halfway through.  [jitter] (default
    0) adds multiplicative noise uniform in [1 -. jitter, 1 +. jitter],
    drawn deterministically from [seed] (default 0); results are
    clamped at 0. *)

val flash_crowd :
  window_s:float -> windows:int -> base:float -> peak:float -> at:int -> width:int -> t
(** Steady [base] load with a burst of [peak] load covering windows
    [at .. at+width-1] (clipped to the trace). *)

val ramp : window_s:float -> windows:int -> from_load:float -> to_load:float -> t
(** Linear interpolation from [from_load] (first window) to [to_load]
    (last window). *)

val steps : window_s:float -> (int * float) list -> t
(** [steps ~window_s phases] concatenates phases, each [(windows, load)]. *)
