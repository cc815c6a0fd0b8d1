(** The DeepTune scoring function (§3.2, eqs. 2–3).

    Candidates are ranked by combining the dissimilarity to known samples
    (exploration of under-visited regions) with the model's predicted
    uncertainty:

    {v
    ds(x, X) = 1 − 1 / (1 + ‖x − X‖²₂)          (eq. 2)
    sf(x, X) = α·ds(x, X) + (1 − α)·F^u(x)      (eq. 3)
    v}

    with [‖x − X‖] the distance from [x] to the nearest known sample, and
    α = 0.5 the paper's recommended balance.  DeepTune's final ranking adds
    the predicted performance to this exploration bonus and gates out
    candidates the crash head rejects (see {!Deeptune}). *)

module Vec = Wayfinder_tensor.Vec

val dissimilarity : Vec.t -> Vec.t list -> float
(** [ds(x, X)] per eq. 2; 1.0 when [X] is empty (everything is novel). *)

val dissimilarity_batch : Vec.t array -> Vec.t list -> float array
(** [dissimilarity_batch xs known] is [Array.map (fun x -> dissimilarity x
    known) xs], bitwise, computed four candidates per pass over [known].
    @raise Invalid_argument if [known] is non-empty and some vector's
    length differs from the first candidate's. *)

val score : ?alpha:float -> dissimilarity:float -> uncertainty:float -> unit -> float
(** [sf] per eq. 3; α defaults to 0.5.
    @raise Invalid_argument if α outside [\[0, 1\]]. *)
