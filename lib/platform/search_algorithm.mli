(** The pluggable search-algorithm API (§3.1).

    The platform exposes the space, the metric and the full exploration
    history; an algorithm proposes the next configuration to evaluate and
    is notified of each result.  Random search, grid search, Bayesian
    optimization ({!Bayes_search}) and DeepTune
    ({!Wayfinder_deeptune.Deeptune}) all implement this interface.

    Batched ("ask/tell") proposal: an algorithm may additionally provide
    [propose_batch], returning [k] configurations at once so a
    multi-worker driver can keep several virtual evaluation slots busy
    between [observe] calls.  The driver asks for a batch only when more
    than one slot is free; otherwise, and for algorithms without a native
    batch, it makes sequential [propose] calls.

    The context also carries the platform's observability recorder:
    algorithms report what only they can see — candidate-pool sizes,
    model-fit timings, per-epoch training losses — under their own metric
    namespace ([random.*], [grid.*], [bayes.*], [deeptune.*]). *)

module Space = Wayfinder_configspace.Space
module Rng = Wayfinder_tensor.Rng
module Obs = Wayfinder_obs

exception Space_exhausted
(** Raised by [propose] (and [propose_batch]) when the algorithm has
    enumerated every configuration it will ever propose — a finite grid
    run past its last point.  The driver turns this into the
    [Space_exhausted] stop reason instead of letting it escape. *)

type context = {
  space : Space.t;
  metric : Metric.t;
  history : History.t;
  rng : Rng.t;
  obs : Obs.Recorder.t;  (** The driver's recorder; never [None] — a
                             sink-less recorder is effectively free. *)
}

type belief = {
  crash_probability : float option;  (** Predicted crash probability [k̂]
      (DeepTune's crash head); [None] for model-free searchers. *)
  predicted_value : float option;  (** Predicted metric value in metric
      units — DeepTune's de-normalised [ŷ], the GP posterior mean. *)
  predicted_uncertainty : float option;  (** Stated uncertainty on the
      prediction, in the algorithm's own scale — DeepTune's RBF [σ̂ ∈
      \[0, 1\]], the GP posterior standard deviation. *)
  belief_source : string;  (** Which model stated it ("deeptune", "gp"). *)
}
(** A searcher's {e pre-evaluation} belief about a proposal — what the
    model thought {e before} the testbed answered.  The run ledger records
    beliefs next to outcomes, making model-calibration diagnostics (Brier
    score, reliability bins, uncertainty–error correlation) computable
    from any recorded run. *)

type t = {
  algo_name : string;
  propose : context -> Space.configuration;
  propose_batch : (context -> k:int -> Space.configuration list) option;
      (** Native ask/tell batch: return [k] distinct proposals in one
          call.  May return fewer than [k] — or raise
          {!Space_exhausted} — only when the proposal space is
          exhausted (a final partial batch).  [None] means the driver
          falls back to [k] sequential [propose] calls. *)
  observe : context -> History.entry -> unit;
  predict : (context -> Space.configuration -> belief) option;
      (** Introspection hook: state the model's current belief about a
          configuration.  MUST be pure — no mutation of the algorithm's
          state and no draws from [ctx.rng] — because the driver only
          calls it when a ledger (or other consumer) is attached, and a
          recorded run must stay byte-for-byte identical to an unrecorded
          one.  [None] for algorithms with no predictive model. *)
}

val make :
  name:string ->
  propose:(context -> Space.configuration) ->
  ?propose_batch:(context -> k:int -> Space.configuration list) ->
  ?observe:(context -> History.entry -> unit) ->
  ?predict:(context -> Space.configuration -> belief) ->
  unit ->
  t
(** [observe] defaults to a no-op (memoryless algorithms);
    [propose_batch] to [None] (sequential fallback); [predict] to [None]
    (no stated beliefs). *)
