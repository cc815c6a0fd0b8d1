(** Dense float vectors.

    A thin layer over [float array] providing the linear-algebra operations
    the rest of Wayfinder needs.  All functions allocate fresh results unless
    suffixed with [_inplace]. *)

type t = float array

val create : int -> float -> t
(** [create n x] is a vector of [n] copies of [x]. *)

val zeros : int -> t

val copy : t -> t

val dim : t -> int

val add : t -> t -> t
(** Element-wise sum.
    Test hook: test_tensor checks it.
    @raise Invalid_argument on dimension mismatch. *)

val sub : t -> t -> t
(** Test hook: test_tensor checks it. *)

val mul : t -> t -> t
(** Element-wise (Hadamard) product.
    Test hook: test_tensor checks it. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place.
    Test hook: test_tensor checks it. *)

val dot : t -> t -> float

val sq_dist : t -> t -> float
(** Squared Euclidean distance. *)

val dist : t -> t -> float

val mean : t -> float

val max_index : t -> int
(** Index of the (first) maximum element.
    Test hook: test_tensor checks it.
    @raise Invalid_argument on an empty vector. *)

val min_index : t -> int
(** Test hook: test_tensor checks it. *)
