(** Concrete Kconfig configurations: assignments of values to symbols,
    expression evaluation, default computation and validation.

    A configuration is *valid on paper* when it satisfies every constraint
    Kconfig can check: declared symbols only, type- and range-correct
    values, dependency limits respected, [select]ed symbols forced on, and
    choice exclusivity.  (The paper's point — that many such configurations
    still fail at build/boot/run time — is modelled separately by
    {!Wayfinder_simos}.) *)

type value = V_tristate of Tristate.t | V_string of string | V_int of int

val value_to_string : value -> string
val value_equal : value -> value -> bool

type t
(** A mutable symbol → value assignment over a fixed tree. *)

val create : Ast.tree -> t
(** Empty assignment (every symbol reads as unset / [n]). *)

val tree : t -> Ast.tree
val copy : t -> t
val set : t -> string -> value -> unit
val get : t -> string -> value option
val tristate_of : t -> string -> Tristate.t
(** Value of a symbol in boolean context: its own value for
    bool/tristate symbols, [Y] for assigned value-typed symbols,
    [N] when unset. *)

val eval_expr : t -> Ast.expr -> Tristate.t

val dependency_limit : t -> Ast.entry -> Tristate.t
(** Conjunction of the entry's [depends on] expressions ([Y] if none). *)

val defaults : Ast.tree -> t
(** The default configuration: entries processed in document order, first
    applicable [default] taken, dependency limits applied, choice defaults
    selected, then [select]s propagated to fixpoint. *)

val apply_selects : t -> unit
(** Force-enable selected symbols until fixpoint (bounded iteration). *)

type violation =
  | Unknown_symbol of string
  | Type_mismatch of { symbol : string; expected : Ast.symbol_type; got : value }
  | Module_on_bool of string
  | Range_violation of { symbol : string; lo : int; hi : int; got : int }
  | Unsatisfied_dependency of { symbol : string; value : Tristate.t; limit : Tristate.t }
  | Unsatisfied_select of { selector : string; selected : string; required : Tristate.t }
  | Choice_violation of { prompt : string; enabled : string list }

val pp_violation : Format.formatter -> violation -> unit

val validate : t -> violation list
(** Empty list iff the configuration is valid on paper. *)

val is_valid : t -> bool

val diff : t -> t -> (string * value option * value option) list
(** Symbols whose values differ, as [(name, in_first, in_second)]. *)
