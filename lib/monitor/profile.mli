(** Span profiler over the JSONL obs traces ([--trace FILE]).

    Rebuilds the phase tree from the span stream (spans are emitted in
    end order; nesting is recovered from the begin/end wall stamps),
    aggregates same-name siblings, and reports dual-clock (wall +
    virtual) total and self times, a top-N hotspot table, and
    collapsed-stack flamegraph output.

    Per-name {!phase_totals} accumulate in file order — the same order
    the recorder fed its histograms — so a trace's virtual phase totals
    reconcile {e bitwise} with [Driver.result.metrics]
    ([Metrics.sum "<phase>.virtual_s"]); the conformance suite pins
    this for single-worker runs.  (With several recording domains the
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
val load : string -> (t, string) result

val phase_totals : t -> clock -> (string * float) list
(** Per-span-name duration totals, accumulated in file order, sorted by
    name — the reconciliation surface against [Driver.result.metrics]. *)

val self : clock -> node -> float
(** Total minus direct children's totals.  Can be negative on degenerate
    (equal-stamp) traces; renderers clamp at 0. *)

val total : clock -> node -> float

val render_tree : t -> string
(** The dual-clock time tree, header line included. *)

val render_hotspots : t -> clock -> top:int -> string
(** The [top] names by summed self time, ties broken by name. *)

val flamegraph : t -> clock -> string
(** Collapsed stacks ([a;b;c value] per line, DFS order), self time in
    integer microseconds — input for standard flamegraph renderers. *)
