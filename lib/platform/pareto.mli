(** Incremental non-dominated archive.

    The driver inserts every successfully evaluated objective vector;
    the archive retains exactly the non-dominated set, tagged by entry
    index.  The result is a pure function of the {e set} of inserted
    points — insertion order cannot change it — and ties (bitwise-equal
    vectors) keep the smallest entry index.  Together these make the
    archive deterministic across worker counts: the engine completes
    evaluations in different orders at different parallelism, but the
    set of completed points is identical, so the archive is too. *)

type point = { index : int; objectives : float array }

type t

val create : spec:Objective.spec -> t
val spec : t -> Objective.spec

val insert : t -> index:int -> objectives:float array -> t
(** Add a point; drops it if dominated (or duplicated by a
    smaller-index point), evicts any point it dominates. *)

val points : t -> point list
(** The current front, sorted by ascending entry index. *)

val size : t -> int

val to_list : t -> (int * float array) list
(** Checkpoint view: [(index, raw vector)] sorted by index. *)

val of_list : spec:Objective.spec -> (int * float array) list -> t
(** Rebuild from a checkpoint; re-inserts every point, so a dominated
    point in the input is silently dropped rather than trusted. *)

val hypervolume_proxy : t -> float
(** A deterministic scalar summary of front quality: objective scores
    are min-max normalized over the archive (constant components map
    to 0.5), and the proxy is the sum over points of the product of
    normalized scores.  Not a true hypervolume (no reference point),
    but monotone enough to trend archive growth in analytics; 0 for an
    empty archive. *)
