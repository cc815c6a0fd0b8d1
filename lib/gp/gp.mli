(** Gaussian-process regression.

    Exact GP inference: fitting factorises the [n × n] Gram matrix with a
    Cholesky decomposition — O(n³) time, O(n²) memory — and adding a data
    point requires a full refit.  These are precisely the scalability
    limitations §2.3 attributes to Bayesian optimization, so this module
    doubles as the measured subject in the Figure 7 comparison context.
    A caller that keeps the Gram entries of its points across fits
    ({!Gram_store}) skips their O(n²·d) recomputation, not the
    factorization: every fit is still a full O(n³) Cholesky, never a
    rank-1 update. *)

module Vec = Wayfinder_tensor.Vec
module Mat = Wayfinder_tensor.Mat

type t

val fit : ?noise:float -> ?gram:Mat.t -> Kernel.t -> Mat.t -> Vec.t -> t
(** [fit kernel x y] with rows of [x] as inputs.  [noise] (default 1e-4) is
    the observation-noise variance added to the Gram diagonal.  [gram],
    when given, must be [Kernel.gram kernel x] (as {!Gram_store.window}
    returns it, with entries reused across fits); the fit then skips
    computing it and is bitwise the fit that computes it.  Either way the
    fit is a full O(n³) Cholesky refit.
    @raise Invalid_argument if row/target counts differ, [gram] is not
    [n × n], or there is no data. *)

val predict : t -> Vec.t -> float * float
(** [(posterior mean, posterior variance)]; the variance includes the
    observation noise floor and is clamped at 0.  The batch of one. *)

val predict_batch : t -> Vec.t array -> (float * float) array
(** {!predict} of every candidate, in order, two candidates per pass over
    the training rows; each element is bitwise the same whatever its
    position or partner.
    Test hook: test_gp's batched-posterior property pins it bitwise to the per-candidate
    oracle; {!expected_improvement_batch} is built on it.
    @raise Invalid_argument if a candidate's dimension is not the inputs'. *)

(** {1 Standard-normal helpers}

    Test hooks: {!expected_improvement} uses both internally; test_gp
    checks the cdf against known quantiles and the pdf against the cdf's
    slope, and its batched-EI property rebuilds the per-candidate EI
    from both. *)

val std_normal_pdf : float -> float
val std_normal_cdf : float -> float
(** Abramowitz–Stegun erf approximation; absolute error < 1.5e-7. *)

val expected_improvement : t -> best:float -> Vec.t -> float
(** EI for *maximisation*: [E\[max(f(x) - best, 0)\]] under the posterior.
    Zero when the posterior is degenerate. *)

val expected_improvement_batch : t -> best:float -> Vec.t array -> float array
(** {!expected_improvement} of every candidate, in order. *)
