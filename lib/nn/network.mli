(** Sequential feedforward networks (the [F^p] trunk and heads of the DTM).

    A network is a stack of dense / ReLU / dropout layers applied in order
    to a mini-batch.  Backward must be called right after the forward pass
    on the same batch; gradients accumulate into the layers' tensors, which
    an {!Optimizer.t} then consumes. *)

module Mat = Wayfinder_tensor.Mat
module Rng = Wayfinder_tensor.Rng

type spec = [ `Dense of int | `Relu | `Dropout of float ]
(** [`Dense n] maps the current width to [n] features. *)

type t

val create : Rng.t -> in_dim:int -> spec list -> t
(** @raise Invalid_argument on an empty spec or a spec whose first layer is
    not [`Dense]. *)

val forward : t -> ?train:bool -> Rng.t -> Mat.t -> Mat.t
(** With [train = false], dropout is disabled (inference mode). *)

val backward : t -> Mat.t -> Mat.t
(** Accumulates every parameter gradient and returns [dL/dx]. *)

val accumulate : t -> Mat.t -> unit
(** [backward] without the input gradient: it stops once the first
    layer's parameter gradients are accumulated, which are bitwise those
    [backward] leaves. *)

val params : t -> Layer.tensor list
val copy : t -> t
(** Test hook: only test_nn calls it; transfer learning copies through {!Dtm} snapshots. *)

val hidden_after_forward : t -> Mat.t list
(** Outputs of each dense layer recorded by the latest [forward] call, in
    order — the activations [z] fed to the parallel RBF branch (Figure 4).
    @raise Invalid_argument before any forward pass. *)

val save_weights : t -> float array
(** Flat copy of every parameter (deterministic order). *)

val load_weights : t -> float array -> unit
(** @raise Invalid_argument on a size mismatch. *)
