(** Response-shape helpers for the simulated performance models.

    Real kernel tuning parameters affect performance in a handful of
    recurring shapes: saturating log-benefits (backlogs, buffer sizes),
    peaked optima (granularities, buffer sweet spots), and linear penalties
    (verbosity levels).  The helpers here return *multiplicative deltas*
    ([+0.04] means "4 % faster") that the models combine as
    [Π (1 + δᵢ)].

    Hidden model state (crash thresholds, noise) is derived from stable
    string hashes so the simulated kernel behaves identically across runs
    and processes. *)

val hash_string : string -> int
(** FNV-1a (64-bit, folded to a non-negative OCaml int). *)

val hash_combine : int -> int -> int
(** [hash_combine a b] is [hash_string (string_of_int a ^ ":" ^
    string_of_int b)], computed without building the string: the bytes
    of each decimal are fed in groups of up to seven digits, with no
    allocation and no division per digit (about 90 ns for two 19-digit
    ints on a 2-vCPU Xeon VM, against 210–270 ns one digit at a time).  Its
    values must not change: they seed every simulated crash and
    measurement.  A qcheck property pins it to that formula
    ([Oracle.hash_combine]), and the golden [simos_outcomes.txt] pins
    the outcomes it seeds. *)

val config_hash :
  seed:int -> salt:int -> (Wayfinder_configspace.Param.value -> int) ->
  Wayfinder_configspace.Param.value array -> int
(** [config_hash ~seed ~salt code config] folds
    [acc := hash_combine acc (hash_combine i (code config.(i)))] over the
    positions, from [hash_combine seed salt].  Each simulator seeds its
    crash and noise draws from this once per evaluation; it is about 400
    {!hash_combine}s on the sim-linux space. *)

val value_code : Wayfinder_configspace.Param.value -> int
(** The code sim-linux and sim-unikraft hash a value by: 0/1 for a
    boolean, 10 + a tristate, 100 + an integer, 20 + a category. *)

val rng_named : string -> salt:int -> Wayfinder_tensor.Rng.t
(** A deterministic generator derived from a name and a salt. *)

val saturating : v:int -> reference:int -> cap_ratio:float -> gain:float -> float
(** Log-shaped benefit rising from the [reference] value and saturating at
    [gain] once [v ≥ reference·cap_ratio]; symmetric loss below the
    reference.  Only defined for positive values (non-positive input yields
    [-gain]). *)

val peaked : v:int -> optimum:int -> width:float -> gain:float -> float
(** Gaussian bump in log-space: [gain·exp(-(log₁₀(v/opt)/width)²)],
    so the delta is [gain] at the optimum and ~0 far away. *)

val level_penalty : level:int -> neutral:int -> per_level:float -> float
(** Linear penalty above a neutral level: [-(level - neutral)·per_level]
    when [level > neutral], else 0 (e.g. printk verbosity). *)
