(** Configuration spaces and concrete configurations.

    A space is an ordered collection of {!Param.t}; a configuration assigns
    every parameter a value (stored positionally).  Spaces support the
    operations the paper's platform needs: random sampling, default-based
    sampling that *favors varying a stage* (§4.1 favours runtime parameters,
    §4.4 compile-time ones), local mutation, and pinning parameters to fixed
    values (the security-aware search mode of §3.5). *)

type t

type configuration = Param.value array
(** Index-aligned with the space's parameters. *)

val create : Param.t list -> t
(** @raise Invalid_argument on duplicate parameter names. *)

val size : t -> int
val params : t -> Param.t array
val param : t -> int -> Param.t

val index_of : t -> string -> int
(** @raise Not_found for unknown names. *)

val mem : t -> string -> bool
(** Test hook: tests check a space's parameter names with it. *)

val log10_cardinality : t -> float
(** Log₁₀ of the number of distinct configurations (fixed parameters
    contribute 1).  The Unikraft space of §4.4 reports ≈13.6, i.e.
    3.7×10¹³ permutations. *)

val fix : t -> (string * Param.value) list -> t
(** Pin parameters to constant values: they keep their position but are
    never varied by {!random}, {!sample_biased} or {!mutate}.
    @raise Invalid_argument on ill-typed pins, @raise Not_found on unknown
    names. *)

val fixed_value : t -> int -> Param.value option

val defaults : t -> configuration
val validate : t -> configuration -> (int * string) list
(** Positions (and messages) of ill-typed or out-of-range values, and of
    violated pins.  Empty = valid. *)

val random : t -> Wayfinder_tensor.Rng.t -> configuration
(** Every non-fixed parameter drawn uniformly from its domain. *)

val sample_biased :
  t -> Wayfinder_tensor.Rng.t -> vary_probability:(Param.t -> float) -> configuration
(** Start from defaults and re-draw each non-fixed parameter with the given
    probability — the "favor certain parameter types" knob of §3.5. *)

val favor_stage : Param.stage -> ?strong:float -> ?weak:float -> Param.t -> float
(** Ready-made bias: [strong] (default 0.6) for parameters of the given
    stage, [weak] (default 0.05) otherwise. *)

val mutate :
  ?only_stage:Param.stage ->
  t ->
  Wayfinder_tensor.Rng.t ->
  configuration ->
  count:int ->
  configuration
(** Fresh configuration with up to [count] non-fixed parameters locally
    perturbed ({!Param.perturb}); [only_stage] restricts the perturbed
    parameters to one stage (e.g. runtime-only exploration). *)

val crossover :
  t -> Wayfinder_tensor.Rng.t -> configuration -> configuration -> configuration
(** Uniform crossover of two parents (used to diversify candidate pools). *)

val get : t -> configuration -> string -> Param.value
val set : t -> configuration -> string -> Param.value -> configuration
(** Functional update.
    Test hook: tests build configurations with it.
    @raise Invalid_argument on ill-typed values. *)

val diff : t -> configuration -> configuration -> (string * string * string) list
(** [(name, old_value, new_value)] for differing positions. *)

val differs_only_in_stage : t -> configuration -> configuration -> Param.stage -> bool
(** True when every differing parameter belongs to [stage] — the platform's
    rebuild-skip test (§3.1: skip the build task when only runtime
    parameters changed).
    Test hook: test_configspace and test_image_cache's stage-key properties use it as
    the oracle for {!stage_key} equality. *)

val project_stages :
  t -> stages:Param.stage list -> configuration -> (string * Param.value) list
(** The configuration restricted to the parameters of the given stages, as
    [(name, value)] pairs in parameter order.
    Test hook: test_image_cache's stage-key property compares {!stage_key} against it.
    @raise Invalid_argument on a size mismatch. *)

val stage_key : t -> configuration -> string
(** Canonical content-address of the configuration's {e non-runtime}
    projection (compile-time and boot-time parameters, by position).  Two
    configurations share a key iff they differ only in runtime parameters
    — i.e. [stage_key t a = stage_key t b] is exactly
    [differs_only_in_stage t a b Param.Runtime] — so the key identifies
    the built image an evaluation needs, and runtime-only variation never
    invalidates it.  The key is the comma-joined ["i:" ^ Param.value_token
    v] of every non-runtime position [i], written from prefixes built once
    by {!create}; journals persist it in their [cached] lines, so its
    bytes must not change (a qcheck property pins them to the
    string-building oracle, [Oracle.stage_key]).
    @raise Invalid_argument on a size mismatch. *)

val canonical_description : t -> string
(** Canonical, injective text rendering of the space's {e structure}: one
    line per parameter in positional order — escaped name, stage, kind
    with full integer ranges / categorical labels, default value token,
    and the pin token for fixed parameters.  Two spaces render to the
    same text iff they are interchangeable for a trained model (same
    parameters, same positions, same domains, same pins), which makes the
    text — together with its CRC — a verifiable fingerprint for the
    persistent model registry.  Never compare truncated hashes of spaces;
    compare this text. *)

val of_kconfig : Wayfinder_kconfig.Space.descriptor list -> Param.t list
(** Convert Kconfig descriptors into compile-time parameters (choice
    members and dependent symbols are included; hex symbols become ints,
    strings single-point categorical domains).  Table 1's bench extracts
    Linux 6.0's space through it. *)
