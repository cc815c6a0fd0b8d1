(** Scalarization: collapse an objective vector into the single score a
    searcher maximizes.

    Applied at the target boundary (see {!Targets}), never inside the
    driver: the driver and every search algorithm stay single-objective,
    and multi-objective search is "scalarize at the evaluator, archive
    the vectors" — the {!Pareto} archive preserves what the collapse
    discards.

    The degenerate weighted sum [(1, 0, 0, ...)] reproduces the first
    objective's score bit-for-bit: zero-weight terms are skipped (never
    multiplied in), and a single term with weight 1 is returned without
    arithmetic, so single-objective trajectories are byte-identical to a
    plain scalar run. *)

type t =
  | Weighted_sum of float array
      (** [sum_i w_i *. score_i], skipping [w_i = 0.] terms. *)
  | Epsilon_constraint of { primary : int; bounds : float array }
      (** Maximize objective [primary] subject to per-objective bounds
          (raw values; [nan] means unconstrained).  A violated bound
          subtracts [1e6 *.] the score-space violation — a soft barrier
          that keeps the scalar finite and totally ordered. *)

val validate : t -> n:int -> (unit, string) result
(** Check arity against an [n]-objective spec: weight/bound lengths
    match, weights are finite, [primary] is in range. *)

val apply : t -> spec:Objective.spec -> float array -> float
(** Collapse a raw vector.  @raise Invalid_argument on arity mismatch
    (call {!validate} first at the API boundary). *)
