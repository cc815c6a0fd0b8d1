(** Synthetic Kconfig tree generation.

    We cannot ship the Linux source tree, so the compile-time configuration
    space is regenerated synthetically: trees whose option counts per type
    match the published census (Table 1 for Linux 6.0) and whose growth over
    kernel versions matches Figure 1.  Structure mirrors real Kconfig usage:
    options grouped in subsystem menus, backward-only dependencies, choice
    blocks, selects restricted to dependency-free targets (so [select]
    cannot manufacture constraint violations), defaults, ranges and help
    text. *)

type profile = {
  version : string;
  n_bool : int;
  n_tristate : int;
  n_string : int;
  n_hex : int;
  n_int : int;
  seed : int;
}

val total : profile -> int
(** Test hook: test_kconfig checks Figure 1's growth and Table 1's 21,272 options with
    it. *)

val linux_6_0 : profile
(** Table 1's census: 7585 bool, 10034 tristate, 154 string, 94 hex,
    3405 int. *)

val linux_profiles : profile list
(** One profile per kernel release plotted in Figure 1, from 2.6.12 (2005)
    to 6.0 (2022), with historically plausible option counts growing from
    roughly 5 000 to the Table 1 census. *)

val profile_for_version : string -> profile option

val generate : profile -> Ast.tree
(** Deterministic in [profile.seed]; the per-type entry counts of the
    result equal the profile exactly. *)
