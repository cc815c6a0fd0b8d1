(** The three loss components of the DeepTune training objective
    [L = L_CCE + L_Reg + L_Cham] (§3.2).

    Every function returns the scalar loss (averaged over the batch) and
    the gradient with respect to its first argument, ready to feed the
    backward pass. *)

module Mat = Wayfinder_tensor.Mat
module Vec = Wayfinder_tensor.Vec

val sigmoid : float -> float

val bce_with_logits :
  ?pos_weight:float -> logits:Vec.t -> targets:Vec.t -> unit -> float * Vec.t
(** [L_CCE] for the binary crash label: cross-entropy of
    [sigmoid(logit)] against targets in [{0, 1}], computed in the
    numerically stable log-sum-exp form.  [pos_weight] (default 1) scales
    the positive class — crash prediction is deliberately recall-heavy
    (§4.3 trusts failure accuracy, not run accuracy).  Returns
    [(loss, dL/dlogits)]. *)

val heteroscedastic :
  mu:Vec.t -> log_var:Vec.t -> targets:Vec.t -> mask:bool array -> float * (Vec.t * Vec.t)
(** [L_Reg], the regression-with-uncertainty loss of Kendall & Gal [41]:
    [½·exp(-s)·(y-μ)² + ½·s] per sample, with [s = log σ²].  Rows with
    [mask.(i) = false] (crashed runs, which have no performance
    measurement) contribute nothing.  Returns the loss and the gradient
    pair [(dL/dμ, dL/ds)]. *)

val chamfer : points:Mat.t -> centroids:Mat.t -> float * Mat.t
(** [L_Cham], the Chamfer distance between the batch of (z-scored) inputs
    and the RBF centroids [26]: mean over points of the squared distance to
    the nearest centroid, plus mean over centroids of the squared distance
    to the nearest point.  Minimising it spreads centroids over the data
    distribution.  Returns [(loss, dL/dcentroids)]. *)
