(** A Unicorn-style causal-inference optimization driver [38].

    Unicorn maintains a causal model of configuration options and
    performance and updates it as observations arrive.  Crucially, adding a
    data point requires *recomputing the causal graph*: per-iteration cost
    grows with both the observation count and the variable count, which is
    what Figure 7 measures against DeepTune's O(1)-ish incremental update.

    This driver reproduces that cost structure faithfully: [refit] runs
    full PC-skeleton discovery over the accumulated observations and
    reports its wall time, CI-test count and matrix-allocation footprint
    together with the size of the stored observation matrix. *)

type t

val create : ?alpha:float -> ?max_cond:int -> n_vars:int -> unit -> t
(** [n_vars] includes the target variable (by convention the last column). *)

val add_observation : t -> float array -> unit
(** @raise Invalid_argument on a row of the wrong width. *)

type iteration_cost = {
  wall_seconds : float;  (** Time of this [refit]. *)
  ci_tests : int;
  matrix_cells : int;  (** Matrix cells allocated during this refit. *)
  stored_cells : int;  (** Observation matrix held live ([n · d]). *)
}

val refit : t -> iteration_cost
(** Recompute the skeleton from scratch over all observations.
    @raise Invalid_argument with fewer than 4 observations. *)
