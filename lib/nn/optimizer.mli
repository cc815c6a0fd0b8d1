(** The Adam optimizer over {!Layer.tensor} parameters.

    DeepTune needs *incremental* training — the ability to fold each new
    observation into the model at O(1) amortised cost, which is precisely
    what Gaussian-process baselines lack (§2.3).  A step mutates parameter
    values in place from accumulated gradients and then resets the
    gradients. *)

type t

val adam : ?weight_decay:float -> lr:float -> Layer.tensor list -> t
(** Adam with the usual constants (β₁ = 0.9, β₂ = 0.999, ε = 1e-8);
    [weight_decay] applies decoupled (AdamW-style) decay each step.  A
    step reads and writes each element once: the update, the decay and
    the zeroed gradient.
    @raise Invalid_argument when a tensor appears twice in the list (or
    two share a value or gradient buffer), or a gradient's size differs
    from its value's. *)

val step : t -> unit
(** Apply one update from the currently accumulated gradients, then zero
    them. *)

val moments : t -> (float array * float array) array
(** Test hook: the first and second moment estimates, one pair per
    parameter in list order, as copies.  test_nn's "oracle" property
    compares them bit for bit with the three-pass step in
    [test/oracle.ml]. *)
