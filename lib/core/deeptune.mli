(** DeepTune: the neural-network search algorithm driving Wayfinder (§3.2).

    Each iteration: generate a diverse pool of candidate configurations ①,
    predict their crash probability / performance / uncertainty with the
    DTM ②, rank them with the scoring function ③ (predicted performance
    plus the eq.-3 exploration bonus, with crash-gating to skip candidates
    the model expects to fail), hand the top candidate to the platform ④,
    and fold the measured outcome back into the DTM ⑤.

    Implements the platform's {!Wayfinder_platform.Search_algorithm} API,
    including the native ask/tell batch: [propose_batch ~k] takes the top-k
    {e distinct} admissible candidates of a single scored pool (one model
    sweep per batch, padded with fresh draws when gating leaves fewer than
    k).  A trained model can be {!export}ed and reused to warm-start the
    search for a related application — the §3.3 transfer learning.

    {b Several metrics} (§3.2, last paragraph): given {!objectives}, the
    DTM carries one regression pair per objective ({!Dtm.create}
    [~metrics]) and each observed entry trains on its objective vector in
    score space.  Ranking applies eq. 3 per metric and takes the weighted
    average ({!rank}); pool generation, the crash gate, batching and the
    observe rule are the single-metric ones. *)

module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Rng = Wayfinder_tensor.Rng
module Search_algorithm = Wayfinder_platform.Search_algorithm
module Objective = Wayfinder_platform.Objective

type options = {
  pool_size : int;  (** Candidate pool per iteration (default 96; half of it
          exploitation seeds once successes exist). *)
  alpha : float;  (** Eq. 3 balance (default 0.5). *)
  exploration_weight : float;
      (** Weight of the sf bonus relative to the (z-scored) predicted
          performance (default 1.0). *)
  crash_penalty : float;
      (** Soft penalty: the ranking subtracts [crash_penalty · k̂] so
          likelier-to-crash candidates lose even below the hard gate
          (default 3.0). *)
  crash_gate : float option;
      (** Skip candidates with [k̂] above this (default [Some 0.35]); if the
          whole pool is gated the least-crashy candidate is taken.  [None]
          disables gating (ablation). *)
  warmup : int;  (** Random iterations before the DTM is consulted (default 10). *)
  train_epochs : int;  (** Incremental-training passes per observation (default 1). *)
  favor : Param.stage option;  (** Stage bias for pool generation. *)
  favor_strong : float;  (** Vary probability for favored-stage parameters
                             in fresh pool draws (default 0.6). *)
  favor_weak : float;  (** Vary probability for the other stages
                           (default 0.05). *)
  dtm_config : Dtm.config;
}

val default_options : options

type t
(** The algorithm's mutable state: the DTM, the observation dataset and the
    encoded history. *)

module Seen : Hashtbl.S with type key = Param.value array
(** The seen set's table: configurations compared position by position,
    so two are one key exactly when their {!Param.config_key}s are equal.
    Its hash folds every position, unlike [Hashtbl.hash], which stops
    after a bounded prefix (DESIGN §13). *)

type objectives = {
  spec : Objective.spec;  (** The target's objective spec, two or more metrics. *)
  weights : float array;  (** One per objective; normalised to sum to 1. *)
}

val create : ?options:options -> ?seed:int -> ?objectives:objectives -> Space.t -> t
(** Without [objectives], a single-metric search on each entry's scalar
    score.  With them, a k-metric search: an entry that counts as a crash
    trains on zeros, a success on [Objective.scores spec] of its vector,
    and a success without a vector adds no row.
    @raise Invalid_argument if [objectives] has fewer than two metrics,
    a weight count other than the spec's, or weights whose sum is not
    positive. *)

val algorithm : t -> Search_algorithm.t
(** The pluggable view registered with the platform driver.  Its belief
    hook states the crash probability and the RBF uncertainty, and the
    predicted value only with one metric. *)

val rank : options -> weights:float array -> dissimilarity:float -> Dtm.prediction -> float
(** A candidate's rank: [Σ_m w_m·μ_m + exploration_weight·bonus −
    crash_penalty·k̂], with [μ_m] the z-scored predicted performances,
    [bonus] eq. 3 of the dissimilarity and [σ̂], and the sum folded from
    [w_0·μ_0].  [weights] are the normalised per-metric weights; a single
    metric's are [\[| 1. |\]].
    Test hook: test_deeptune checks the scoring rule on hand-made predictions; the
    ranker scores every pool through it.
    @raise Invalid_argument on a weight/metric count mismatch. *)

val dtm : t -> Dtm.t
val observations : t -> int

val parameter_impacts : t -> (string * float) array
(** Query the learned model for signed per-parameter performance impact
    (§4.1's High-Impact analysis), sorted by descending impact. *)

(** {1 Transfer learning (§3.3)} *)

type transfer = {
  model : Dtm.snapshot;
  incumbents : Space.configuration list;
      (** The donor's best configurations, used to seed the candidate
          pool's exploitation half. *)
}

val export : t -> transfer

val create_from : ?options:options -> ?seed:int -> Space.t -> transfer -> t
(** Warm-started search: the DTM begins with the donor's weights (and
    normaliser), so impactful parameters and crash regions are already
    partially known, and the donor's incumbents seed exploitation.  The
    random warm-up is skipped.  @raise Invalid_argument when the
    snapshot's architecture does not fit this space's encoding. *)

val seed_incumbents : t -> Space.configuration list -> unit
(** Enqueue configurations to be proposed verbatim before the pool is
    consulted — the {e overlap-only} warm start: when a registry donor's
    space merely overlaps this one (so its model weights cannot be
    imported), its projected incumbents still transfer as first
    proposals while the normal random warm-up and cold model remain.
    Ill-sized configurations are ignored. *)
