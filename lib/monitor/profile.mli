(** Span profiler over the JSONL obs traces ([--trace FILE]).

    Rebuilds the phase tree from the span stream (spans are emitted in
    end order; nesting is recovered from the begin/end wall stamps),
    aggregates same-name siblings, and reports dual-clock (wall +
    virtual) total and self times, a top-N hotspot table, and
    collapsed-stack flamegraph output.

    {!t.spans} keep file order — the same order the recorder fed its
    histograms — so per-name duration totals summed in that order
    reconcile {e bitwise} with [Driver.result.metrics]
    ([Metrics.sum "<phase>.virtual_s"]); test_monitor's "reconciles with
    driver metrics" case pins this.  (With several recording domains the
    per-name emission order is not stable between the trace and the
    registry, so only the multiset of samples — not the float
    accumulation order — is shared.)  Undecodable lines (torn tails included) are counted and
    skipped, never fatal — only a missing or foreign schema header
    rejects the file. *)

type clock = Wall | Virtual

type span = {
  name : string;
  began_wall : float;
  began_virtual : float;
  wall_s : float;
  virtual_s : float;
}

type node = {
  node_name : string;
  mutable count : int;
  mutable wall_total : float;
  mutable virtual_total : float;
  mutable children : node list;  (** First-appearance order. *)
}

type t = {
  spans : span list;  (** File order. *)
  roots : node list;
  events : int;  (** Well-formed event lines of any type. *)
  dropped : int;  (** Undecodable lines. *)
}

val of_string : string -> (t, string) result
(** Test hook: tests decode in-memory traces with it; {!load} reads files through it. *)

val load : string -> (t, string) result

val self : clock -> node -> float
(** Total minus direct children's totals.  Can be negative on degenerate
    (equal-stamp) traces; renderers clamp at 0.
    Test hook: test_monitor checks self times with it; the renderers use it. *)

val render_tree : t -> string
(** The dual-clock time tree, header line included. *)

val render_hotspots : t -> clock -> top:int -> string
(** The [top] names by summed self time, ties broken by name. *)

val flamegraph : t -> clock -> string
(** Collapsed stacks ([a;b;c value] per line, DFS order), self time in
    integer microseconds — input for standard flamegraph renderers. *)
