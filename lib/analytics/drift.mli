(** Stale-model detection for registry warm-starts.

    A registry entry records the {e training distribution} its model saw:
    the crash rate and the mean successful metric value of the run that
    trained it.  Before auto-warm-starting from a donor, [Session.plan] can
    probe a {e live} ledger of the same workload (e.g. yesterday's
    production run) against those recorded statistics: if the workload
    has drifted — configurations crash much more often than the donor
    ever saw, or the metric distribution has shifted — the donor's
    beliefs are actively misleading and the search is better off cold.
    This is the registry's staleness policy (DESIGN.md §16): drift
    {e downgrades} an [auto] warm-start to a cold start with a warning,
    never silently.

    The probe is windowed: only the trailing [window] rows of the live
    series vote, so an old ledger whose tail has recovered does not keep
    flagging a long-dead incident. *)

type verdict =
  | Fresh
  | Stale of string list  (** Human-readable drift reasons, at least one. *)

type probe = {
  live_crash_rate : float;  (** Trailing-window crash rate of the live series. *)
  donor_crash_rate : float;  (** The donor's recorded training crash rate. *)
  live_mean : float;  (** Mean successful raw value in the window; NaN if none. *)
  donor_mean : float;  (** The donor's recorded mean successful value. *)
  window : int;  (** Rows that actually voted (≤ the requested window). *)
  verdict : verdict;
}

val probe :
  ?window:int ->
  ?crash_margin:float ->
  ?mean_margin:float ->
  ?min_samples:int ->
  donor_crash_rate:float ->
  donor_mean:float ->
  Series.t ->
  probe
(** [window] trailing rows considered (default 20).  Drift is declared
    when the live windowed crash rate exceeds the donor's by more than
    [crash_margin] (absolute, default 0.25), or the live mean successful
    value shifts from the donor's by more than [mean_margin] relative
    (default 0.5).  Fewer than [min_samples] live rows (default 5) is
    never drift — absence of evidence keeps the warm-start. *)

val to_string : probe -> string
(** One-line report for the CLI warning. *)
