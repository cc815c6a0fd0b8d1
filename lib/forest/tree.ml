module Mat = Wayfinder_tensor.Mat
module Vec = Wayfinder_tensor.Vec
module Rng = Wayfinder_tensor.Rng

type node =
  | Leaf of float
  | Split of {
      feature : int;
      threshold : float;
      gain : float;  (* impurity decrease, weighted by sample fraction *)
      left : node;
      right : node;
    }

type t = { root : node; n_features : int }

let sse_stats indices y =
  let n = Array.length indices in
  let sum = ref 0. in
  Array.iter (fun i -> sum := !sum +. y.(i)) indices;
  let mean = !sum /. float_of_int n in
  let sse = ref 0. in
  Array.iter
    (fun i ->
      let d = y.(i) -. mean in
      sse := !sse +. (d *. d))
    indices;
  (mean, !sse)

let threshold_candidates = 16

(* Candidate thresholds for one feature over the active rows: midpoints of
   evenly spaced order statistics (cheap quantile sketch). *)
let candidates_for x indices feature =
  let values = Array.map (fun i -> Mat.get x i feature) indices in
  (* Float.compare: total with NaN (polymorphic compare is not).  NaN
     values sort first and can never become thresholds — [cur > prev] is
     false whenever either side is NaN — so split-point selection stays
     deterministic on degenerate inputs. *)
  Array.sort Float.compare values;
  let n = Array.length values in
  if n < 2 || values.(0) = values.(n - 1) then [||]
  else begin
    let out = ref [] in
    let steps = min threshold_candidates (n - 1) in
    for s = 1 to steps do
      let idx = s * (n - 1) / steps in
      let prev = values.(max 0 (idx - 1)) and cur = values.(idx) in
      if cur > prev then out := ((prev +. cur) /. 2.) :: !out
    done;
    Array.of_list (List.sort_uniq Float.compare !out)
  end

let best_split x y indices features total_n =
  let _, parent_sse = sse_stats indices y in
  if parent_sse <= 1e-12 then None
  else begin
    let best = ref None in
    Array.iter
      (fun feature ->
        Array.iter
          (fun threshold ->
            (* Single pass: split statistics on both sides. *)
            let nl = ref 0 and suml = ref 0. and sumsql = ref 0. in
            let nr = ref 0 and sumr = ref 0. and sumsqr = ref 0. in
            Array.iter
              (fun i ->
                let v = Mat.get x i feature and t = y.(i) in
                if v <= threshold then begin
                  incr nl;
                  suml := !suml +. t;
                  sumsql := !sumsql +. (t *. t)
                end
                else begin
                  incr nr;
                  sumr := !sumr +. t;
                  sumsqr := !sumsqr +. (t *. t)
                end)
              indices;
            if !nl > 0 && !nr > 0 then begin
              let sse_of n sum sumsq = sumsq -. (sum *. sum /. float_of_int n) in
              let child_sse = sse_of !nl !suml !sumsql +. sse_of !nr !sumr !sumsqr in
              let decrease = parent_sse -. child_sse in
              match !best with
              | Some (_, _, best_decrease) when best_decrease >= decrease -> ()
              | Some _ | None ->
                if decrease > 1e-12 then best := Some (feature, threshold, decrease)
            end)
          (candidates_for x indices feature))
      features;
    match !best with
    | None -> None
    | Some (feature, threshold, decrease) ->
      let gain = decrease *. float_of_int (Array.length indices) /. float_of_int total_n in
      Some (feature, threshold, gain)
  end

let fit ?(max_depth = 12) ?(min_samples = 4) ?features_per_split rng x y =
  if x.Mat.rows = 0 then invalid_arg "Tree.fit: empty data";
  if x.Mat.rows <> Array.length y then invalid_arg "Tree.fit: row/target mismatch";
  let d = x.Mat.cols in
  let k = match features_per_split with None -> d | Some k -> max 1 (min k d) in
  let total_n = x.Mat.rows in
  let pick_features () =
    if k = d then Array.init d (fun i -> i) else Rng.sample_without_replacement rng k d
  in
  let rec grow indices depth =
    let mean, _ = sse_stats indices y in
    if depth >= max_depth || Array.length indices < min_samples then Leaf mean
    else
      match best_split x y indices (pick_features ()) total_n with
      | None -> Leaf mean
      | Some (feature, threshold, gain) ->
        let left = Array.of_list (List.filter (fun i -> Mat.get x i feature <= threshold) (Array.to_list indices)) in
        let right = Array.of_list (List.filter (fun i -> Mat.get x i feature > threshold) (Array.to_list indices)) in
        if Array.length left = 0 || Array.length right = 0 then Leaf mean
        else
          Split
            { feature; threshold; gain;
              left = grow left (depth + 1);
              right = grow right (depth + 1) }
  in
  { root = grow (Array.init total_n (fun i -> i)) 0; n_features = d }

let predict t v =
  let rec walk = function
    | Leaf value -> value
    | Split { feature; threshold; left; right; _ } ->
      if v.(feature) <= threshold then walk left else walk right
  in
  walk t.root

let depth t =
  let rec go = function
    | Leaf _ -> 0
    | Split { left; right; _ } -> 1 + max (go left) (go right)
  in
  go t.root

let accumulate_importance t acc =
  if Array.length acc < t.n_features then
    invalid_arg "Tree.accumulate_importance: accumulator too short";
  let rec go = function
    | Leaf _ -> ()
    | Split { feature; gain; left; right; _ } ->
      acc.(feature) <- acc.(feature) +. gain;
      go left;
      go right
  in
  go t.root
