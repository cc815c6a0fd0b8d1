(** Dense row-major float matrices on Bigarray storage.

    Provides the matrix algebra needed by the neural network ({!Nn}), the
    Gaussian process ({!Gp}: Cholesky factorization and triangular solves),
    and the causal-inference baseline (correlation matrices).  Storage is
    an unboxed, GC-opaque [float64] {!Bigarray.Array1}, so large buffers
    impose no marking work and can be shared read-only across domains.
    {!matmul} runs row-parallel on the ambient {!Domain_pool} when one is
    installed, with results bitwise identical to the sequential kernel. *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { rows : int; cols : int; data : buffer }
(** Row-major storage: element [(i, j)] lives at [data.{i * cols + j}]. *)

val create : int -> int -> float -> t
(** Test hook: tests allocate matrices with it. *)

val zeros : int -> int -> t
val eye : int -> t
val init : int -> int -> (int -> int -> float) -> t
val copy : t -> t

val numel : t -> int
(** [rows * cols]. *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val set_flat : t -> int -> float -> unit

val fill : t -> float -> unit
(** Set every element. *)

val to_array : t -> float array
(** Fresh flat row-major copy of the contents. *)

val of_array : int -> int -> float array -> t
(** [of_array rows cols a] copies the flat row-major [a].
    Test hook: the oracle in test/oracle.ml builds matrices with it.
    @raise Invalid_argument if [Array.length a <> rows * cols]. *)

val blit_from_array : ?src_pos:int -> float array -> t -> unit
(** Overwrite the matrix from a flat row-major array slice. *)

val row : t -> int -> Vec.t
(** Fresh copy of row [i]. *)

val col : t -> int -> Vec.t
val set_row : t -> int -> Vec.t -> unit
(** Test hook: tests build matrices row by row with it. *)

val of_rows : Vec.t array -> t
(** @raise Invalid_argument if rows have differing lengths or there are none. *)

val add : t -> t -> t
val scale : float -> t -> t
(** Test hook: test_nn's quadratic loss gradient uses it. *)

val add_into : dst:t -> t -> unit
(** [add_into ~dst src] accumulates [src] into [dst] elementwise. *)

val matmul : t -> t -> t
(** [matmul a b] with [a : m×k] and [b : k×n] is [m×n].  Each element is
    the dot product over k ascending, computed by a register-blocked
    top-level kernel (2×4 outputs per pass) that reads both operands in
    place, steps its operand offsets by the strides and takes k two
    steps at a time (one more when k is odd); when an ambient
    {!Domain_pool} is installed and the product is large enough, rows
    are computed in parallel with bitwise-identical results.
    @raise Invalid_argument on inner-dimension mismatch. *)

val matmul_nt : t -> t -> t
(** [matmul_nt a b = a · bᵀ] with [a : m×k] and [b : n×k], bitwise
    the product of [a] with a transposed copy of [b], without the copy.
    @raise Invalid_argument unless [a] and [b] have the same columns. *)

val matmul_tn : t -> t -> t
(** [matmul_tn a b = aᵀ · b] with [a : k×m] and [b : k×n], bitwise
    the product of a transposed copy of [a] with [b], without the copy.
    @raise Invalid_argument unless [a] and [b] have the same rows. *)

val mat_vec : t -> Vec.t -> Vec.t
(** [mat_vec a x = a · x].
    Test hook: test_tensor checks it and builds linear systems with it. *)

val vec_mat : Vec.t -> t -> Vec.t
(** [vec_mat x a = xᵀ · a].
    Test hook: test_tensor checks it. *)

val add_jitter : t -> float -> t
(** [add_jitter a eps] adds [eps] to the diagonal (numerical stabilisation
    before a Cholesky factorization). *)

val cholesky : t -> t
(** Lower-triangular Cholesky factor [L] with [L·Lᵀ = A], four rows per
    pass; each entry's sum runs over [k] in ascending order, so [L] is
    bitwise the textbook row-by-row factor.
    @raise Failure if the matrix is not (numerically) positive definite. *)

val solve_lower : t -> Vec.t -> Vec.t
(** [solve_lower l b] solves [L·x = b] by forward substitution, each
    row's sum over [j] in ascending order.
    Test hook: test_tensor pins it bitwise to a reference solve; {!cholesky_solve} is
    built on it. *)

val solve_lower2 : t -> Vec.t -> Vec.t -> Vec.t * Vec.t
(** [solve_lower2 l b c] is [(solve_lower l b, solve_lower l c)], bitwise,
    solved together so that each load of [L] serves both systems. *)

val cholesky_solve : t -> Vec.t -> Vec.t
(** [cholesky_solve l b] solves [A·x = b] given the Cholesky factor [l]. *)

val inverse_spd : t -> t
(** Inverse of a symmetric positive-definite matrix via Cholesky. *)
