(** Covariance kernels for Gaussian-process regression.

    The Bayesian-optimization baseline of §2.3/§4.4 models the objective
    with a GP.  Both stationary kernels here operate on the feature
    encodings of configurations. *)

type t =
  | Squared_exponential of { lengthscale : float; variance : float }
  | Matern52 of { lengthscale : float; variance : float }

val eval : t -> Wayfinder_tensor.Vec.t -> Wayfinder_tensor.Vec.t -> float

val cross2_into :
  t ->
  Wayfinder_tensor.Mat.t ->
  Wayfinder_tensor.Vec.t ->
  Wayfinder_tensor.Vec.t ->
  Wayfinder_tensor.Vec.t ->
  Wayfinder_tensor.Vec.t ->
  unit
(** [cross2_into k x q0 q1 v0 v1] sets [v0.(i)] to [k(x_i, q0)] and
    [v1.(i)] to [k(x_i, q1)] for the first [Array.length v0] rows of [x],
    read in place, each bitwise {!eval} (in either argument order).
    @raise Invalid_argument if [v0] is longer than [x], [v1] is not as
    long as [v0], or a query is not a row's width. *)

val gram : t -> Wayfinder_tensor.Mat.t -> Wayfinder_tensor.Mat.t
(** [gram k x] where rows of [x] are inputs: the symmetric matrix
    [K(i,j) = k(x_i, x_j)], bitwise equal to pairwise {!eval} on the rows. *)
