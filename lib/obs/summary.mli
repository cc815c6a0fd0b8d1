(** Human-readable metrics rendering.

    Turns a {!Metrics.snapshot} into the plain-text footer the CLI and the
    bench figures print: counters first, then one line per histogram with
    count, total, mean and approximate tail quantiles. *)

val si : float -> string
(** Compact duration rendering, microseconds to hours: ["850us"],
    ["12.5ms"], ["42.00s"], ["1.5m"] (everything from 60 s up renders in
    minutes), ["2.3h"].  The sign of a negative duration sits outside the
    unit conversion (["-1.5m"]); non-finite values render as ["nan"] /
    ["inf"] / ["-inf"], never as a formatted garbage number. *)

val to_text : ?title:string -> Metrics.snapshot -> string
(** Deterministic: counters and histograms render sorted by name even if
    the snapshot was assembled unsorted. *)

val phase_line :
  Metrics.snapshot -> phases:(string * string) list -> suffix:string -> string
(** One-line breakdown, e.g.
    [phase_line s ~phases:["build", "driver.build"; ...] ~suffix:".virtual_s"]
    renders ["build 812.0s (54%) | boot 96.1s (6%) | ..."] from the
    histogram sums.  Phases with no samples render as 0.
    Test hook: test_obs checks the phase line's format with it. *)
