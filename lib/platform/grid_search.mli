(** Grid search (§3.1): systematic enumeration, one parameter value after
    the other.

    The grid is the cross product of per-parameter candidate lists (full
    domains for booleans/tristates/categoricals, up to [steps] log-spaced
    values for integers).  Enumeration order varies the *first* parameter
    fastest.  Once every point has been proposed the algorithm raises
    {!Search_algorithm.Space_exhausted} (the driver stops with the
    [Space_exhausted] stop reason) instead of wrapping around and
    re-proposing duplicates.  Known to be inferior to random search on
    large spaces (§4) — included for completeness. *)

val create : ?steps:int -> unit -> Search_algorithm.t
(** [steps] (default 4) caps the candidate values per integer parameter.
    The returned algorithm has a native [propose_batch]: the next [k]
    points of the enumeration, with a final partial batch (fewer than
    [k]) when the grid runs out mid-ask. *)
