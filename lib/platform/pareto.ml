module Stat = Wayfinder_tensor.Stat

type point = { index : int; objectives : float array }

type t = { spec : Objective.spec; points : point list (* ascending index *) }

let create ~spec = { spec; points = [] }
let spec t = t.spec
let points t = t.points
let size t = List.length t.points

let insert t ~index ~objectives =
  let beaten_by p =
    Objective.dominates t.spec p.objectives objectives
    || (Objective.equal_vec p.objectives objectives && p.index <= index)
  in
  if List.exists beaten_by t.points then t
  else
    let survives p =
      not
        (Objective.dominates t.spec objectives p.objectives
        || (Objective.equal_vec p.objectives objectives && index < p.index))
    in
    let points =
      List.merge
        (fun a b -> compare a.index b.index)
        [ { index; objectives } ]
        (List.filter survives t.points)
    in
    { t with points }

let to_list t = List.map (fun p -> (p.index, p.objectives)) t.points

let of_list ~spec l =
  List.fold_left (fun t (index, objectives) -> insert t ~index ~objectives) (create ~spec) l

let hypervolume_proxy t =
  match t.points with
  | [] -> 0.
  | points ->
    let n = Array.length t.spec in
    let scores =
      List.map (fun p -> Objective.scores t.spec p.objectives) points
    in
    let lo = Array.make n infinity and hi = Array.make n neg_infinity in
    List.iter
      (fun s ->
        Array.iteri
          (fun i x ->
            if x < lo.(i) then lo.(i) <- x;
            if x > hi.(i) then hi.(i) <- x)
          s)
      scores;
    List.fold_left
      (fun acc s ->
        let volume = ref 1. in
        Array.iteri
          (fun i x -> volume := !volume *. Stat.min_max_norm ~lo:lo.(i) ~hi:hi.(i) x)
          s;
        acc +. !volume)
      0. scores
