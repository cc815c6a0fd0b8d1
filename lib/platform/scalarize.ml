type t =
  | Weighted_sum of float array
  | Epsilon_constraint of { primary : int; bounds : float array }

let validate t ~n =
  match t with
  | Weighted_sum w ->
    if Array.length w <> n then
      Error
        (Printf.sprintf "scalarize: %d weights for %d objectives" (Array.length w) n)
    else if Array.exists (fun x -> not (Float.is_finite x)) w then
      Error "scalarize: weights must be finite"
    else if Array.for_all (fun x -> x = 0.) w && n > 0 then
      Error "scalarize: at least one weight must be non-zero"
    else Ok ()
  | Epsilon_constraint { primary; bounds } ->
    if Array.length bounds <> n then
      Error
        (Printf.sprintf "scalarize: %d bounds for %d objectives" (Array.length bounds) n)
    else if primary < 0 || primary >= n then
      Error (Printf.sprintf "scalarize: primary objective %d out of range" primary)
    else if Array.exists (fun b -> (not (Float.is_nan b)) && not (Float.is_finite b)) bounds
    then
      (* NaN means "no bound" and is skipped by [apply]; an infinite
         bound would flow into the soft-barrier shortfall and poison the
         scalarized score with ±inf. *)
      Error "scalarize: bounds must be finite (NaN for no bound)"
    else Ok ()

let apply t ~spec v =
  let n = Array.length spec in
  if Array.length v <> n then invalid_arg "Scalarize.apply: vector/spec length mismatch";
  match t with
  | Weighted_sum w ->
    if Array.length w <> n then invalid_arg "Scalarize.apply: weight/spec length mismatch";
    (* Zero-weight terms are skipped entirely and a lone unit weight is
       returned unscaled, so (1, 0, ..., 0) reproduces objective 0's
       score bit-for-bit — the degenerate case existing oracles pin. *)
    let acc = ref None in
    Array.iteri
      (fun i wi ->
        if wi <> 0. then begin
          let s = Metric.score spec.(i) v.(i) in
          let term = if wi = 1. then s else wi *. s in
          acc := Some (match !acc with None -> term | Some a -> a +. term)
        end)
      w;
    (match !acc with Some a -> a | None -> 0.)
  | Epsilon_constraint { primary; bounds } ->
    if Array.length bounds <> n then
      invalid_arg "Scalarize.apply: bound/spec length mismatch";
    let violation = ref 0. in
    Array.iteri
      (fun i b ->
        if not (Float.is_nan b) then begin
          let shortfall = Metric.score spec.(i) b -. Metric.score spec.(i) v.(i) in
          if shortfall > 0. then violation := !violation +. shortfall
        end)
      bounds;
    Metric.score spec.(primary) v.(primary) -. (1e6 *. !violation)
