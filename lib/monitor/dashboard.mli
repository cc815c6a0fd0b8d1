(** The [wayfinder watch] TTY frame.

    A deterministic projection of a ledger's semantic content: the frame
    text depends only on the meta record, the rows folded into the
    {!Live_series}, the seal state, the drop count and the active alert
    names — never on wall-clock fields ([decide_s]), file paths or the
    time of rendering.  Two identical-seed runs therefore render
    byte-identical frames; CI diffs them. *)

module A = Wayfinder_analytics

val render :
  ?alerts:string list ->
  ?dropped:int ->
  seal:Tail.seal ->
  meta:A.Ledger.meta ->
  Live_series.t ->
  string
(** Multi-line frame, trailing newline included.  [alerts] (default
    none) are the active rule names; [dropped] (default 0) the count of
    salvage-dropped lines. *)
