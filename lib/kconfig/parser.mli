(** Parser for the Kconfig subset described in {!Ast}.

    The input format is the line-oriented concrete syntax of Linux Kconfig
    files restricted to: [config], [menu]/[endmenu], [choice]/[endchoice],
    type lines ([bool]/[tristate]/[string]/[hex]/[int] with optional
    prompts), [prompt], [default ... \[if expr\]], [depends on expr],
    [select NAME \[if expr\]], [range lo hi], [help] blocks, ['#'] comments
    and [source]/[mainmenu] lines (which are accepted and ignored: there is
    no file system to source from). *)

exception Error of { line : int; message : string }

val parse : string -> Ast.tree
(** @raise Error on malformed input, with a 1-based line number. *)

val parse_expr : string -> Ast.expr
(** Parse a dependency expression, e.g. ["NET && (PCI || !EMBEDDED)"].
    Test hook: test_kconfig parses standalone expressions with it.
    @raise Error (with line 0) on malformed expressions. *)
