(** Neural-network layers with explicit forward/backward passes.

    Everything operates on mini-batches stored as row-major matrices
    ([batch × features]).  Layers cache whatever the backward pass needs,
    so the usage protocol is strictly [forward] then [backward] on the same
    batch.  These are the building blocks of the DeepTune Model: dense
    layers with ReLU and dropout for the prediction branch (§3.2, [F^p])
    and Gaussian RBF layers for the uncertainty branch ([F^u], eq. 1). *)

module Mat = Wayfinder_tensor.Mat
module Rng = Wayfinder_tensor.Rng

(** {1 Trainable tensors} *)

type tensor = { value : Mat.t; grad : Mat.t }
(** A parameter and its gradient accumulator (same shape). *)

val tensor_zeros : int -> int -> tensor
(** Test hook: tests build parameters with it; the layers allocate theirs through it. *)

val zero_grad : tensor -> unit
(** Test hook: test_nn and the oracle in test/oracle.ml clear gradients with it. *)

(** {1 Dense} *)

module Dense : sig
  type t

  val create : Rng.t -> in_dim:int -> out_dim:int -> t
  (** He-initialised weights, zero bias. *)

  val forward : t -> Mat.t -> Mat.t
  val backward : t -> Mat.t -> Mat.t
  (** [backward t dy] accumulates weight/bias gradients and returns
      [dL/dx].  Must follow a [forward] on the matching batch. *)

  val accumulate : t -> Mat.t -> unit
  (** The parameter-gradient half of {!backward}, without computing
      [dL/dx]. *)

  val params : t -> tensor list
  val copy : t -> t
  (** Deep copy of weights (gradients reset); used for transfer learning. *)
end

(** {1 ReLU} *)

module Relu : sig
  type t

  val create : unit -> t
  val forward : t -> Mat.t -> Mat.t
  val backward : t -> Mat.t -> Mat.t
end

(** {1 Inverted dropout} *)

module Dropout : sig
  type t

  val create : rate:float -> t
  (** @raise Invalid_argument unless [0 <= rate < 1]. *)

  val rate : t -> float

  val forward : t -> ?train:bool -> Rng.t -> Mat.t -> Mat.t
  (** Identity when [train] is false (the default is [true]). *)

  val backward : t -> Mat.t -> Mat.t
end

(** {1 Gaussian RBF layer (eq. 1)} *)

module Rbf : sig
  type t

  val create : Rng.t -> in_dim:int -> centroids:int -> gamma:float -> t
  (** Each of the [centroids] neurons holds a learned prototype [c];
      activation is [exp(-‖z - c‖² / 2γ²)].  The paper uses γ = 0.1 on
      z-scored inputs. *)

  val centroid_matrix : t -> Mat.t
  (** [centroids × in_dim]; row k is prototype [c_k]. *)

  val forward : t -> Mat.t -> Mat.t
  (** [batch × in_dim] → [batch × centroids] activations. *)

  val backward : t -> Mat.t -> Mat.t
  (** Accumulates centroid gradients; returns [dL/dz].  Test hook: only
      test_nn calls it (a finite-difference check); the DTM moves its
      centroids through the Chamfer loss alone. *)

  val params : t -> tensor list
end
