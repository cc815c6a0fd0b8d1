(** A minimal YAML-subset parser for Wayfinder job files.

    Wayfinder is driven by YAML "job files" describing the configuration
    space of the target OS (§3.1, §3.4 of the paper).  This module parses
    the subset of YAML those files use:

    - block mappings ([key: value]) nested by indentation;
    - block sequences ([- item]), including sequences of mappings;
    - flow sequences ([\[a, b, c\]]);
    - scalars with type inference ([null], booleans, decimal and hex
      integers, floats, bare and quoted strings);
    - ['#'] comments and blank lines.

    Anchors, aliases, multi-document streams, flow mappings and multi-line
    scalars are out of scope — job files do not need them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Map of (string * t) list

exception Parse_error of { line : int; message : string }
(** Raised with a 1-based line number on malformed input. *)

val parse : string -> t
(** Parse a document.  An empty document parses to [Null]. *)

val parse_file : string -> t
(** [parse_file path] reads and parses a file.
    @raise Sys_error if the file cannot be read. *)

val scalar_of_string : string -> t
(** Type inference used for scalars; exposed for testing.  Quoted input
    always yields [String].
    Test hook: test_yamlite checks scalar inference with it; the parser types every
    scalar through it. *)

(** {1 Accessors}

    [find] raises on a missing key; [find_opt] returns [None] instead. *)

val find : t -> string -> t
(** [find map key] looks up [key] in a [Map].
    Test hook: test_yamlite reads parsed documents with it.
    @raise Not_found if absent; @raise Invalid_argument on non-maps. *)

val find_opt : t -> string -> t option

val to_string : t -> string
(** Render back to YAML text ([parse (to_string v)] is structurally [v]
    for values produced by this module). *)

val pp : Format.formatter -> t -> unit
(** Test hook: test_yamlite prints mismatching documents with it. *)
