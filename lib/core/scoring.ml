module Vec = Wayfinder_tensor.Vec

(* Each candidate's nearest squared distance to [known]: the sum over j
   ascending per pair, folded over [known] in list order with [<=] as in
   [Stdlib.min], the running minimum kept in [out].  Candidates go four
   per pass over [known], so each known vector is loaded once per block;
   a tail of fewer than four goes one at a time. *)
let nearest_sq_dists (xs : Vec.t array) known =
  let n = Array.length xs in
  let d = if n = 0 then 0 else Array.length xs.(0) in
  let check (v : Vec.t) =
    if Array.length v <> d then invalid_arg "Scoring.dissimilarity_batch: dimension mismatch"
  in
  Array.iter check xs;
  let out = Array.make n infinity in
  let blocks = n / 4 in
  for blk = 0 to blocks - 1 do
    let c = 4 * blk in
    let x0 = xs.(c) and x1 = xs.(c + 1) and x2 = xs.(c + 2) and x3 = xs.(c + 3) in
    List.iter
      (fun (k : Vec.t) ->
        check k;
        let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
        for j = 0 to d - 1 do
          let kj = Array.unsafe_get k j in
          let e0 = Array.unsafe_get x0 j -. kj and e1 = Array.unsafe_get x1 j -. kj in
          let e2 = Array.unsafe_get x2 j -. kj and e3 = Array.unsafe_get x3 j -. kj in
          s0 := !s0 +. (e0 *. e0);
          s1 := !s1 +. (e1 *. e1);
          s2 := !s2 +. (e2 *. e2);
          s3 := !s3 +. (e3 *. e3)
        done;
        if not (out.(c) <= !s0) then out.(c) <- !s0;
        if not (out.(c + 1) <= !s1) then out.(c + 1) <- !s1;
        if not (out.(c + 2) <= !s2) then out.(c + 2) <- !s2;
        if not (out.(c + 3) <= !s3) then out.(c + 3) <- !s3)
      known
  done;
  for c = 4 * blocks to n - 1 do
    let x = xs.(c) in
    List.iter
      (fun (k : Vec.t) ->
        check k;
        let s = ref 0. in
        for j = 0 to d - 1 do
          let e = Array.unsafe_get x j -. Array.unsafe_get k j in
          s := !s +. (e *. e)
        done;
        if not (out.(c) <= !s) then out.(c) <- !s)
      known
  done;
  out

let dissimilarity_batch xs known =
  match known with
  | [] -> Array.make (Array.length xs) 1.
  | _ :: _ -> Array.map (fun nearest -> 1. -. (1. /. (1. +. nearest))) (nearest_sq_dists xs known)

let dissimilarity x known = (dissimilarity_batch [| x |] known).(0)

let score ?(alpha = 0.5) ~dissimilarity ~uncertainty () =
  if alpha < 0. || alpha > 1. then invalid_arg "Scoring.score: alpha outside [0, 1]";
  (alpha *. dissimilarity) +. ((1. -. alpha) *. uncertainty)
