(** The training window of a sequential GP, with its Gram entries kept
    across fits.

    A searcher that refits after every observation would otherwise
    recompute all n(n+1)/2 kernel entries of its window, O(n²·d), though
    each entry depends only on its two points.  The store holds the
    newest [max_points] points with their targets, and the entries
    between the points of the window it last returned.  Constant-liar
    batching pushes temporary points ({!lie}) newer than every
    observation and drops them all at once ({!pop_lies}).

    Rows are kept up lazily: {!window} drops the rows of points that left
    the window and computes one row per point that entered it, so after
    a single observation a read costs O(n·d) kernel work plus an O(n²)
    copy.  Memory is bounded by [max_points²] entries and [2·max_points]
    points, whatever the length of the run. *)

module Vec = Wayfinder_tensor.Vec
module Mat = Wayfinder_tensor.Mat

type t

val create : Kernel.t -> max_points:int -> t
(** @raise Invalid_argument if [max_points < 1]. *)

val observe : t -> Vec.t -> float -> unit
(** [observe t x y] adds a permanent point with target [y].  [x] is kept,
    not copied: it must not change afterwards. *)

val lie : t -> Vec.t -> float -> unit
(** [lie t x y] adds a temporary point, newer than every observation
    made so far, until {!pop_lies}; [x] is kept as by {!observe}. *)

val pop_lies : t -> unit
(** Drops every lie. *)

val length : t -> int
(** Observations made plus lies held: the points the window is the
    newest [max_points] of. *)

val held : t -> int
(** Rows of Gram entries held; never more than [max_points].
    Test hook: test_gp's store property checks that the window never holds more than
    [max_points]. *)

val window : t -> Mat.t * Vec.t * Mat.t
(** [(x, y, gram)] of the newest [max_points] points, newest first (the
    lies newest first, then the observations newest first): their rows,
    their targets, and [Kernel.gram kernel x], bitwise, from the entries
    held since the previous read plus one new row per point that entered
    the window.
    @raise Invalid_argument if there are no points. *)
