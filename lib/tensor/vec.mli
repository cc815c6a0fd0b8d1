(** Dense float vectors.

    A thin layer over [float array] providing the linear-algebra operations
    the rest of Wayfinder needs.  All functions allocate fresh results unless
    suffixed with [_inplace]. *)

type t = float array

val create : int -> float -> t
(** [create n x] is a vector of [n] copies of [x]. *)

val init : int -> (int -> float) -> t
(** [init n f] is [| f 0; ...; f (n-1) |]. *)

val zeros : int -> t

val copy : t -> t

val dim : t -> int

val add : t -> t -> t
(** Element-wise sum.  @raise Invalid_argument on dimension mismatch. *)

val sub : t -> t -> t

val mul : t -> t -> t
(** Element-wise (Hadamard) product. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val sq_dist : t -> t -> float
(** Squared Euclidean distance. *)

val dist : t -> t -> float

val sum : t -> float

val mean : t -> float

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t

val max_index : t -> int
(** Index of the (first) maximum element.
    @raise Invalid_argument on an empty vector. *)

val min_index : t -> int

val concat : t list -> t

val of_list : float list -> t

val pp : Format.formatter -> t -> unit
(** Prints as [[x0; x1; ...]] with 4 significant digits. *)
