(** Abstract syntax of the Kconfig subset Wayfinder understands.

    The subset covers what is needed to model the compile-time
    configuration space of a Linux-like kernel (§2, Table 1 of the paper):
    typed [config] entries with prompts, defaults, dependencies, reverse
    dependencies ([select]), value ranges and help text, grouped under
    [menu]s and (exclusive) [choice] blocks. *)

type symbol_type = Bool | Tristate | String | Hex | Int

val symbol_type_to_string : symbol_type -> string

type expr =
  | Const of Tristate.t
  | Symbol of string
  | Eq of string * string  (** [A = B]; operands are symbol names or literals. *)
  | Neq of string * string
  | Not of expr
  | And of expr * expr
  | Or of expr * expr

type default_value =
  | Dv_tristate of Tristate.t
  | Dv_expr of expr  (** [default FOO] — value tracks another symbol. *)
  | Dv_string of string
  | Dv_int of int

type entry = {
  name : string;
  sym_type : symbol_type;
  prompt : string option;
  defaults : (default_value * expr option) list;  (** [(value, condition)] in order. *)
  depends : expr list;
  selects : (string * expr option) list;
  range : (int * int) option;  (** Only meaningful for [Int]/[Hex]. *)
  help : string option;
}

type item =
  | Config of entry
  | Menu of menu
  | Choice of choice

and menu = { m_title : string; m_depends : expr list; m_items : item list }

and choice = {
  c_prompt : string;
  c_default : string option;
  c_depends : expr list;
  c_entries : entry list;  (** Mutually exclusive boolean members. *)
}

type tree = item list

val empty_entry : string -> symbol_type -> entry
(** An entry with the given name and type and no other attributes. *)

val iter_entries : (entry -> unit) -> tree -> unit
(** Visit every [config] entry (including choice members) in document order. *)

val fold_entries : ('a -> entry -> 'a) -> 'a -> tree -> 'a
val entries : tree -> entry list

val find_entry : tree -> string -> entry option

val choices : tree -> choice list
(** All choice blocks, in document order, at any nesting depth. *)

val print_tree : tree -> string
(** Render back to Kconfig text parseable by {!Parser.parse}. *)
