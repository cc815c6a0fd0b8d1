module Vec = Wayfinder_tensor.Vec
module Mat = Wayfinder_tensor.Mat

(* [slot] is the slot holding the point's Gram row, or -1.  Every push
   makes a new point, so a held row is always the row of the same point. *)
type point = { x : Vec.t; y : float; mutable slot : int }

type t = {
  kernel : Kernel.t;
  max_points : int;
  observed : point array;  (* observation i at i mod max_points *)
  mutable n_observed : int;
  lies : point array;  (* lie i at i mod max_points, until pop_lies *)
  mutable n_lies : int;
  held_by : point array;  (* the point whose row slot s holds; [none] if free *)
  entries : float array;  (* k(point in slot s, point in slot s') at s·max_points + s' *)
}

let none = { x = [||]; y = 0.; slot = -1 }

let create kernel ~max_points =
  if max_points < 1 then invalid_arg "Gram_store.create: max_points < 1";
  { kernel; max_points;
    observed = Array.make max_points none; n_observed = 0;
    lies = Array.make max_points none; n_lies = 0;
    held_by = Array.make max_points none;
    entries = Array.make (max_points * max_points) 0. }

let observe t x y =
  t.observed.(t.n_observed mod t.max_points) <- { x; y; slot = -1 };
  t.n_observed <- t.n_observed + 1

let lie t x y =
  t.lies.(t.n_lies mod t.max_points) <- { x; y; slot = -1 };
  t.n_lies <- t.n_lies + 1

let pop_lies t = t.n_lies <- 0
let length t = t.n_observed + t.n_lies
let held t = Array.fold_left (fun c p -> if p == none then c else c + 1) 0 t.held_by

(* The newest [max_points] points, newest first: the lies, then the
   observations. *)
let newest t =
  let n = Int.min t.max_points (length t) in
  let nl = Int.min n t.n_lies in
  Array.init n (fun i ->
      if i < nl then t.lies.((t.n_lies - 1 - i) mod t.max_points)
      else t.observed.((t.n_observed - 1 - (i - nl)) mod t.max_points))

let window t =
  let pts = newest t in
  let n = Array.length pts and m = t.max_points in
  if n = 0 then invalid_arg "Gram_store.window: no points";
  let x = Mat.of_rows (Array.map (fun p -> p.x) pts) in
  (* Free the slots of points that left the window ... *)
  let keep = Array.make m false in
  Array.iter (fun p -> if p.slot >= 0 then keep.(p.slot) <- true) pts;
  Array.iteri
    (fun s p ->
      if p != none && not keep.(s) then begin
        p.slot <- -1;
        t.held_by.(s) <- none
      end)
    t.held_by;
  (* ... then give each point that entered it a slot. *)
  let fresh = ref [] and free = ref 0 in
  Array.iteri
    (fun i p ->
      if p.slot < 0 then begin
        while t.held_by.(!free) != none do
          incr free
        done;
        p.slot <- !free;
        t.held_by.(!free) <- p;
        fresh := i :: !fresh
      end)
    pts;
  (* A new point's row against the whole window, two new points per
     pass; an entry between two new points is written twice, with the
     same bits. *)
  let v0 = Array.make n 0. and v1 = Array.make n 0. in
  let rec fill = function
    | [] -> ()
    | i :: rest ->
      let i', rest = match rest with j :: rest -> (j, rest) | [] -> (i, []) in
      Kernel.cross2_into t.kernel x pts.(i).x pts.(i').x v0 v1;
      for j = 0 to n - 1 do
        let sj = pts.(j).slot in
        let set i v =
          t.entries.((pts.(i).slot * m) + sj) <- v;
          t.entries.((sj * m) + pts.(i).slot) <- v
        in
        set i v0.(j);
        set i' v1.(j)
      done;
      fill rest
  in
  fill !fresh;
  let gram = Mat.zeros n n in
  for i = 0 to n - 1 do
    let si = pts.(i).slot * m in
    for j = 0 to n - 1 do
      Bigarray.Array1.unsafe_set gram.Mat.data ((i * n) + j) t.entries.(si + pts.(j).slot)
    done
  done;
  (x, Array.map (fun p -> p.y) pts, gram)
