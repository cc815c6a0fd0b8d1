type t = float array

let create n x = Array.make n x
let zeros n = Array.make n 0.
let copy = Array.copy
let dim = Array.length

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name (Array.length a) (Array.length b))

let add a b =
  check_dims "add" a b;
  Array.mapi (fun i x -> x +. b.(i)) a

let sub a b =
  check_dims "sub" a b;
  Array.mapi (fun i x -> x -. b.(i)) a

let mul a b =
  check_dims "mul" a b;
  Array.mapi (fun i x -> x *. b.(i)) a

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let dot a b =
  check_dims "dot" a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let sq_dist a b =
  check_dims "sq_dist" a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let dist a b = sqrt (sq_dist a b)
let sum = Array.fold_left ( +. ) 0.

let mean a =
  if Array.length a = 0 then 0. else sum a /. float_of_int (Array.length a)

let extreme_index name better a =
  if Array.length a = 0 then invalid_arg ("Vec." ^ name ^ ": empty vector");
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if better a.(i) a.(!best) then best := i
  done;
  !best

let max_index a = extreme_index "max_index" ( > ) a
let min_index a = extreme_index "min_index" ( < ) a
