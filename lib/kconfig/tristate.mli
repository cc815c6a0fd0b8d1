(** Kconfig tristate logic.

    Kconfig symbols of type [bool] and [tristate] take values from the
    ordered set [n < m < y] ("off", "module", "built-in").  Boolean
    connectives follow Kconfig semantics: conjunction is [min],
    disjunction is [max], and negation maps [n ↦ y], [m ↦ m], [y ↦ n]. *)

type t = N | M | Y

val compare : t -> t -> int
(** Total order with [N < M < Y]. *)

val ( <= ) : t -> t -> bool
val min : t -> t -> t

val band : t -> t -> t
(** Kconfig [&&]. *)

val bor : t -> t -> t
(** Kconfig [||]. *)

val bnot : t -> t
(** Kconfig [!]: numerically [2 - x]. *)

val to_string : t -> string
(** ["n"], ["m"] or ["y"]. *)

val of_string : string -> t option
val to_int : t -> int
(** [N ↦ 0], [M ↦ 1], [Y ↦ 2]. *)

val of_int : int -> t
(** Clamps into [\[0, 2\]].
    Test hook: test_kconfig's De Morgan property draws tristates with it. *)

val pp : Format.formatter -> t -> unit
