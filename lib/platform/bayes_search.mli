(** Bayesian optimization baseline (§2.3, §4.4).

    A Gaussian process is fitted over the feature encodings of evaluated
    configurations and the next candidate is chosen by Expected Improvement
    over a random candidate pool.  Faithful to the limitations the paper
    measures: every observation triggers a *full* O(n³) refit (only the
    Gram entries of the window are kept across refits, in a
    {!Wayfinder_gp.Gram_store}), there is no
    crash model (failures are folded in as a pessimistic score), and
    one-hot categorical dimensions dilute the kernel — which is why it only
    competes on small spaces like Unikraft's (Figure 9).

    Supports the ask/tell batch interface through constant-liar batching:
    each pick is temporarily recorded as a fake observation at the
    incumbent best score (0 before any outcome), and the lies are removed
    before real outcomes are observed.  A driver run asks for a batch only
    while it fills its initial free slots, before any outcome exists, so
    with [n_init] at least the batch size every batch pick is a random
    warm-up draw and no lie carries a score into a fit.  Only
    [propose_batch] called directly between observations reaches the
    liar's refits. *)

val create :
  ?favor:Wayfinder_configspace.Param.stage ->
  ?n_init:int ->
  ?pool:int ->
  ?max_points:int ->
  ?lengthscale:float ->
  ?seed:int ->
  unit ->
  Search_algorithm.t
(** [n_init] random warm-up draws (default 8); [pool] candidates per
    iteration (default 200), scored in one batch from a [pool × dim]
    workspace that the first acquisition allocates, with only the winner
    drawn again as a configuration; [max_points] caps the
    GP training set at the most recent observations (default 200) so the
    cubic refit — still a full O(n³) refit per proposal, as in the paper
    — stays tractable; [lengthscale] defaults to 1.5.  [seed] is unused:
    all randomness comes from the driver's [ctx.rng]. *)
