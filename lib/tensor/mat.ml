type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { rows : int; cols : int; data : buffer }

let alloc n : buffer = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let create rows cols x =
  let data = alloc (rows * cols) in
  Bigarray.Array1.fill data x;
  { rows; cols; data }

let zeros rows cols = create rows cols 0.

let numel m = m.rows * m.cols
let get_flat m i = m.data.{i}
let set_flat m i x = m.data.{i} <- x
let fill m x = Bigarray.Array1.fill m.data x

let init rows cols f =
  let data = alloc (rows * cols) in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.{(i * cols) + j} <- f i j
    done
  done;
  { rows; cols; data }

let eye n = init n n (fun i j -> if i = j then 1. else 0.)

let copy m =
  let data = alloc (numel m) in
  Bigarray.Array1.blit m.data data;
  { m with data }

let get m i j = m.data.{(i * m.cols) + j}
let set m i j x = m.data.{(i * m.cols) + j} <- x

let to_array m = Array.init (numel m) (fun i -> m.data.{i})

let of_array rows cols a =
  if Array.length a <> rows * cols then invalid_arg "Mat.of_array: length mismatch";
  let data = alloc (rows * cols) in
  Array.iteri (fun i x -> data.{i} <- x) a;
  { rows; cols; data }

let blit_from_array ?(src_pos = 0) a m =
  let n = numel m in
  if src_pos < 0 || src_pos + n > Array.length a then
    invalid_arg "Mat.blit_from_array: source too short";
  for i = 0 to n - 1 do
    m.data.{i} <- a.(src_pos + i)
  done

let row m i = Array.init m.cols (fun j -> get m i j)
let col m j = Array.init m.rows (fun i -> get m i j)

let set_row m i v =
  if Array.length v <> m.cols then invalid_arg "Mat.set_row: dimension mismatch";
  let base = i * m.cols in
  Array.iteri (fun j x -> m.data.{base + j} <- x) v

let of_rows rows =
  match Array.length rows with
  | 0 -> invalid_arg "Mat.of_rows: no rows"
  | n ->
    let cols = Array.length rows.(0) in
    let m = zeros n cols in
    Array.iteri
      (fun i r ->
        if Array.length r <> cols then invalid_arg "Mat.of_rows: ragged rows";
        set_row m i r)
      rows;
    m

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Mat.%s: shape mismatch (%dx%d vs %dx%d)" name a.rows a.cols b.rows b.cols)

let elementwise name f a b =
  check_same name a b;
  let c = { a with data = alloc (numel a) } in
  for i = 0 to numel a - 1 do
    c.data.{i} <- f a.data.{i} b.data.{i}
  done;
  c

let add a b = elementwise "add" ( +. ) a b
let sub a b = elementwise "sub" ( -. ) a b
let hadamard a b = elementwise "hadamard" ( *. ) a b
let map2 f a b = elementwise "map2" f a b

let scale s m =
  let c = { m with data = alloc (numel m) } in
  for i = 0 to numel m - 1 do
    c.data.{i} <- s *. m.data.{i}
  done;
  c

let map f m =
  let c = { m with data = alloc (numel m) } in
  for i = 0 to numel m - 1 do
    c.data.{i} <- f m.data.{i}
  done;
  c

let add_into ~dst src =
  check_same "add_into" dst src;
  for i = 0 to numel dst - 1 do
    dst.data.{i} <- dst.data.{i} +. src.data.{i}
  done

(* ------------------------------------------------------------------ *)
(* Matrix product                                                      *)
(* ------------------------------------------------------------------ *)

(* Products below this many multiply-adds are not worth a trip through
   the domain pool; the pool round-trip costs on the order of a small
   matmul itself. *)
let par_flop_threshold = 32_768

(* [a : m×k], [b : k×n].  The kernel materializes Bᵀ so both operands
   stream sequentially (the "transposed" layout), then computes each
   output element as a dot product with [k] ascending.  Because every
   c(i,j) is produced by exactly one lane using the identical
   accumulation order, the result is bitwise identical whether the row
   range [0, m) is processed inline or split across any number of
   domains — which is what lets the ambient pool stay invisible to the
   engine's determinism oracle.  Row chunks double as cache blocking. *)
let matmul a b =
  if a.cols <> b.rows then
    invalid_arg (Printf.sprintf "Mat.matmul: inner dimension mismatch (%d vs %d)" a.cols b.rows);
  let m = a.rows and n = b.cols and kd = a.cols in
  let c = zeros m n in
  let bt = transpose b in
  let ad = a.data and btd = bt.data and cd = c.data in
  let rows lo hi =
    for i = lo to hi - 1 do
      let abase = i * kd and cbase = i * n in
      for j = 0 to n - 1 do
        let bbase = j * kd in
        let acc = ref 0. in
        for k = 0 to kd - 1 do
          acc :=
            !acc
            +. Bigarray.Array1.unsafe_get ad (abase + k)
               *. Bigarray.Array1.unsafe_get btd (bbase + k)
        done;
        Bigarray.Array1.unsafe_set cd (cbase + j) !acc
      done
    done
  in
  (match Domain_pool.get_default () with
  | Some pool when m >= 2 && m * n * kd >= par_flop_threshold ->
    Domain_pool.parallel_for pool m rows
  | _ -> rows 0 m);
  c

let mat_vec a x =
  if a.cols <> Array.length x then invalid_arg "Mat.mat_vec: dimension mismatch";
  Array.init a.rows (fun i ->
      let acc = ref 0. in
      for j = 0 to a.cols - 1 do
        acc := !acc +. (get a i j *. x.(j))
      done;
      !acc)

let vec_mat x a =
  if a.rows <> Array.length x then invalid_arg "Mat.vec_mat: dimension mismatch";
  Array.init a.cols (fun j ->
      let acc = ref 0. in
      for i = 0 to a.rows - 1 do
        acc := !acc +. (x.(i) *. get a i j)
      done;
      !acc)

let trace m =
  let n = min m.rows m.cols in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. get m i i
  done;
  !acc

let frobenius m =
  let acc = ref 0. in
  for i = 0 to numel m - 1 do
    let x = m.data.{i} in
    acc := !acc +. (x *. x)
  done;
  sqrt !acc

let add_jitter m eps =
  let c = copy m in
  for i = 0 to min m.rows m.cols - 1 do
    set c i i (get c i i +. eps)
  done;
  c

(* The factorization and the triangular solves check shapes once, then
   index storage unchecked.  Every sum keeps the textbook order, so the
   results are bitwise those of the checked loops. *)
let cholesky a =
  if a.rows <> a.cols then invalid_arg "Mat.cholesky: not square";
  let n = a.rows in
  let l = zeros n n in
  let open Bigarray.Array1 in
  let ad = a.data and ld = l.data in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (unsafe_get ad ((i * n) + j)) in
      for k = 0 to j - 1 do
        acc := !acc -. (unsafe_get ld ((i * n) + k) *. unsafe_get ld ((j * n) + k))
      done;
      if i = j then begin
        if !acc <= 0. then failwith "Mat.cholesky: matrix not positive definite";
        unsafe_set ld ((i * n) + i) (sqrt !acc)
      end
      else unsafe_set ld ((i * n) + j) (!acc /. unsafe_get ld ((j * n) + j))
    done
  done;
  l

(* Rows go four at a time so each load of x(j), j < i, feeds four
   independent sums, each still over j ascending; the rows of the block
   are then finished in order.  Block rows past n repeat row n-1, unused. *)
let solve_lower l b =
  let n = l.rows and ld = l.data in
  if l.cols <> n || Array.length b <> n then invalid_arg "Mat.solve_lower: dimension mismatch";
  let x = Array.copy b in
  let open Bigarray.Array1 in
  for blk = 0 to ((n + 3) / 4) - 1 do
    let i = 4 * blk in
    let row s = Int.min (i + s) (n - 1) in
    let l0 = i * n and l1 = row 1 * n and l2 = row 2 * n and l3 = row 3 * n in
    let a0 = ref x.(i) and a1 = ref x.(row 1) and a2 = ref x.(row 2) and a3 = ref x.(row 3) in
    for j = 0 to i - 1 do
      let xj = Array.unsafe_get x j in
      a0 := !a0 -. (unsafe_get ld (l0 + j) *. xj);
      a1 := !a1 -. (unsafe_get ld (l1 + j) *. xj);
      a2 := !a2 -. (unsafe_get ld (l2 + j) *. xj);
      a3 := !a3 -. (unsafe_get ld (l3 + j) *. xj)
    done;
    let acc = [| !a0; !a1; !a2; !a3 |] in
    for s = 0 to Int.min 4 (n - i) - 1 do
      let r = i + s in
      for j = i to r - 1 do
        acc.(s) <- acc.(s) -. (unsafe_get ld ((r * n) + j) *. x.(j))
      done;
      x.(r) <- acc.(s) /. unsafe_get ld ((r * n) + r)
    done
  done;
  x

let solve_upper l b =
  let n = l.rows and ld = l.data in
  if l.cols <> n || Array.length b <> n then invalid_arg "Mat.solve_upper: dimension mismatch";
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref (Array.unsafe_get b i) in
    for j = i + 1 to n - 1 do
      (* Interpreting [l] as lower-triangular, [Lᵀ] has entry (i,j) = L(j,i). *)
      acc := !acc -. (Bigarray.Array1.unsafe_get ld ((j * n) + i) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!acc /. Bigarray.Array1.unsafe_get ld ((i * n) + i))
  done;
  x

let cholesky_solve l b = solve_upper l (solve_lower l b)

let log_det_from_cholesky l =
  let acc = ref 0. in
  for i = 0 to l.rows - 1 do
    acc := !acc +. log (get l i i)
  done;
  2. *. !acc

let inverse_spd a =
  let n = a.rows in
  let l = cholesky a in
  let inv = zeros n n in
  for j = 0 to n - 1 do
    let e = Array.init n (fun i -> if i = j then 1. else 0.) in
    let x = cholesky_solve l e in
    for i = 0 to n - 1 do
      set inv i j x.(i)
    done
  done;
  inv

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    if i > 0 then Format.fprintf ppf "@,";
    Vec.pp ppf (row m i)
  done;
  Format.fprintf ppf "@]"
