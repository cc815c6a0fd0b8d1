(** Concrete Kconfig configurations: assignments of values to symbols,
    expression evaluation, default computation and validation.

    A configuration is *valid on paper* when it satisfies every constraint
    Kconfig can check: declared symbols only, type- and range-correct
    values, dependency limits respected, [select]ed symbols forced on, and
    choice exclusivity.  (The paper's point — that many such configurations
    still fail at build/boot/run time — is modelled separately by
    {!Wayfinder_simos}.) *)

type value = V_tristate of Tristate.t | V_string of string | V_int of int

type t
(** A mutable symbol → value assignment over a fixed tree. *)

val copy : t -> t
(** Test hook: test_kconfig derives invalid configurations from the defaults with it. *)

val set : t -> string -> value -> unit
(** Test hook: test_kconfig sets symbols with it; {!defaults} is built on it. *)

val get : t -> string -> value option
val tristate_of : t -> string -> Tristate.t
(** Value of a symbol in boolean context: its own value for
    bool/tristate symbols, [Y] for assigned value-typed symbols,
    [N] when unset.
    Test hook: test_kconfig reads symbols with it; {!defaults} is built on it. *)

val eval_expr : t -> Ast.expr -> Tristate.t
(** Test hook: test_kconfig checks expression semantics with it; {!defaults} is built on
    it. *)

val defaults : Ast.tree -> t
(** The default configuration: entries processed in document order, first
    applicable [default] taken, dependency limits applied, choice defaults
    selected, then [select]s propagated to fixpoint. *)

val apply_selects : t -> unit
(** Force-enable selected symbols until fixpoint (bounded iteration).
    Test hook: test_kconfig checks select propagation with it; {!defaults} is built on
    it. *)

type violation =
  | Unknown_symbol of string
  | Type_mismatch of { symbol : string; expected : Ast.symbol_type; got : value }
  | Module_on_bool of string
  | Range_violation of { symbol : string; lo : int; hi : int; got : int }
  | Unsatisfied_dependency of { symbol : string; value : Tristate.t; limit : Tristate.t }
  | Unsatisfied_select of { selector : string; selected : string; required : Tristate.t }
  | Choice_violation of { prompt : string; enabled : string list }

val pp_violation : Format.formatter -> violation -> unit
(** Test hook: test_kconfig prints the violations {!validate} finds with it. *)

val validate : t -> violation list
(** Empty list iff the configuration is valid on paper.
    Test oracle: no program validates a configuration; test_kconfig checks with it that
    {!defaults}, which {!Space.descriptors} reads, yields a valid configuration, and
    that each kind of violation is caught. *)

val is_valid : t -> bool
(** Test oracle: {!validate} as a predicate, for test_kconfig. *)
