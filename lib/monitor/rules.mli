(** Declarative alert rules over a {!Live_series}.

    Selected on the CLI with [--alerts SPEC] and evaluated after every
    record; conditions are deterministic functions of the rows seen so
    far (plus a baseline the drift rule freezes from the run's own first
    window), so the alert stream is as replayable as everything else in
    this library.

    Grammar (comma-separated, e.g. ["crash>0.5@40,stall>30,drift"]):
    - [crash>P[@W]] — trailing-[W]-window crash rate above [P] (a
      fraction in \[0,1\]; [W] defaults to
      {!Wayfinder_analytics.Running.default_window});
    - [stall>N] — no best improvement in the last [N] iterations;
    - [starve<F] — mean worker-pool busy fraction below [F] (only
      evaluated when the caller supplies [worker_busy], i.e. in-process
      with [workers > 1]);
    - [drift[@W]] — {!Wayfinder_analytics.Drift.probe} of the trailing
      [W] rows against the crash rate and mean successful value of the
      run's {e first} [W] rows (frozen once available; probed only once
      [2W] rows exist, so baseline and probe never overlap).

    Firing is {e edge-triggered}: {!evaluate} reports a rule once when
    its condition becomes true, and the rule re-arms when the condition
    clears.  {!active} lists the rules currently true (for dashboard
    rendering). *)

type rule =
  | Crash of { threshold : float; window : int }
  | Stall of { iterations : int }
  | Starve of { fraction : float }
  | Drift of { window : int }

val parse : string -> (rule list, string) result

val window : rule list -> int option
(** The largest crash or drift window: the rows a {!Live_series} must
    keep for these rules ({!Live_series.create}'s [window]); [None] when
    no rule reads rows. *)

type firing = { rule : string; message : string }
(** [rule] is [crash], [stall], [starve] or [drift]: the [Alert] event's tag. *)

type state
(** Per-rule edge-trigger latches plus the drift baseline. *)

val create : rule list -> state

val evaluate : state -> ?worker_busy:float -> Live_series.t -> firing list
(** Newly-fired rules (false→true transitions) for the current series
    state, in rule order. *)

val active : state -> string list
(** Names of the rules whose condition currently holds. *)
