(** Deterministic pseudo-random number generation.

    Every stochastic component of Wayfinder draws from this module so that
    experiments are reproducible given a seed.  The generator is SplitMix64
    (Steele, Lea & Flood 2014): a tiny, fast, well-distributed 64-bit
    generator whose state is a single integer, which makes independent
    streams ({!split}) trivial to derive. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield identical
    streams.  The seed is pre-mixed through one SplitMix64 finalizer step,
    so nearby seeds (0, 1, 2, …) still start from well-separated states —
    seed 0 in particular does not start the underlying Weyl sequence at
    state 0. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val state : t -> int64
(** The raw 64-bit state, for checkpointing.  Restoring it with
    {!set_state} resumes the stream exactly where it left off. *)

val set_state : t -> int64 -> unit
(** [set_state t s] makes [t] continue from state [s], in place. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output.
    Test hook: test_tensor pins the stream with it; every draw is built on it. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val normal : t -> ?mu:float -> ?sigma:float -> unit -> float
(** Gaussian sample via the Box–Muller transform.  Defaults: [mu = 0.],
    [sigma = 1.]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] is [k] distinct indices drawn
    uniformly from [\[0, n)].  @raise Invalid_argument if [k > n]. *)

