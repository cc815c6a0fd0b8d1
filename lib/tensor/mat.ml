type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { rows : int; cols : int; data : buffer }

let alloc n : buffer = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let create rows cols x =
  let data = alloc (rows * cols) in
  Bigarray.Array1.fill data x;
  { rows; cols; data }

let zeros rows cols = create rows cols 0.

let numel m = m.rows * m.cols
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
  if i < 0 || i >= m.rows then invalid_arg "Mat.set_row: row out of range";
  let base = i * m.cols in
  for j = 0 to m.cols - 1 do
    Bigarray.Array1.unsafe_set m.data (base + j) (Array.unsafe_get v j)
  done

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

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Mat.%s: shape mismatch (%dx%d vs %dx%d)" name a.rows a.cols b.rows b.cols)

let add a b =
  check_same "add" a b;
  let c = { a with data = alloc (numel a) } in
  let ad = a.data and bd = b.data and cd = c.data in
  for i = 0 to numel a - 1 do
    Bigarray.Array1.unsafe_set cd i
      (Bigarray.Array1.unsafe_get ad i +. Bigarray.Array1.unsafe_get bd i)
  done;
  c

let scale s m =
  let c = { m with data = alloc (numel m) } in
  for i = 0 to numel m - 1 do
    c.data.{i} <- s *. m.data.{i}
  done;
  c

let add_into ~dst src =
  check_same "add_into" dst src;
  let dd = dst.data and sd = src.data in
  for i = 0 to numel dst - 1 do
    Bigarray.Array1.unsafe_set dd i
      (Bigarray.Array1.unsafe_get dd i +. Bigarray.Array1.unsafe_get sd i)
  done

(* ------------------------------------------------------------------ *)
(* Matrix product                                                      *)
(* ------------------------------------------------------------------ *)

(* Products below this many multiply-adds are not worth a trip through
   the domain pool; the pool round-trip costs on the order of a small
   matmul itself. *)
let par_flop_threshold = 32_768

(* The one product kernel: [c(i,j) = Σ_k a(i,k)·b(k,j)] for [c : m×n],
   reading a(i,k) at [ad.{i*ars + k*acs}] and b(k,j) at
   [bd.{k*brs + j*bcs}], so a transposed operand is read in place by
   swapping its strides.  Each pass computes a 2×4 block of c in eight
   independent accumulators; each starts at [0.] and adds its products
   over k ascending, exactly the scalar dot product, so the result is
   bitwise the same whatever the blocking.  The operand offsets step by
   the strides, and k goes two steps per iteration with a one-step tail
   when [kd] is odd.  A lone last row is computed twice (identically)
   and a column tail goes one column at a time.  Since every element is
   produced by one lane in the same order, the row range [0, m) may also
   be split across any number of domains with bitwise identical results
   — which is what lets the ambient pool stay invisible to the engine's
   determinism oracle.  [product_rows] computes rows [lo, hi) of c; it
   is a top-level function, so its operands live in registers rather
   than in a closure's environment. *)
let product_rows ~n ~kd (ad : buffer) ~ars ~acs (bd : buffer) ~brs ~bcs (cd : buffer) lo hi =
  let open Bigarray.Array1 in
  let b1 = bcs and b2 = 2 * bcs and b3 = 3 * bcs in
  let i = ref lo in
  while !i < hi do
    let i0 = !i in
    let i1 = if i0 + 1 < hi then i0 + 1 else i0 in
    let a0 = i0 * ars and da = (i1 - i0) * ars and c0 = i0 * n and c1 = i1 * n in
    let j = ref 0 in
    while !j + 4 <= n do
      let s00 = ref 0. and s01 = ref 0. and s02 = ref 0. and s03 = ref 0. in
      let s10 = ref 0. and s11 = ref 0. and s12 = ref 0. and s13 = ref 0. in
      let pa = ref a0 and pb = ref (!j * bcs) in
      for _ = 1 to kd / 2 do
        let p = !pa and q = !pb in
        let x0 = unsafe_get ad p and x1 = unsafe_get ad (p + da) in
        let y0 = unsafe_get bd q and y1 = unsafe_get bd (q + b1) in
        let y2 = unsafe_get bd (q + b2) and y3 = unsafe_get bd (q + b3) in
        s00 := !s00 +. (x0 *. y0);
        s01 := !s01 +. (x0 *. y1);
        s02 := !s02 +. (x0 *. y2);
        s03 := !s03 +. (x0 *. y3);
        s10 := !s10 +. (x1 *. y0);
        s11 := !s11 +. (x1 *. y1);
        s12 := !s12 +. (x1 *. y2);
        s13 := !s13 +. (x1 *. y3);
        let p = p + acs and q = q + brs in
        let x0 = unsafe_get ad p and x1 = unsafe_get ad (p + da) in
        let y0 = unsafe_get bd q and y1 = unsafe_get bd (q + b1) in
        let y2 = unsafe_get bd (q + b2) and y3 = unsafe_get bd (q + b3) in
        s00 := !s00 +. (x0 *. y0);
        s01 := !s01 +. (x0 *. y1);
        s02 := !s02 +. (x0 *. y2);
        s03 := !s03 +. (x0 *. y3);
        s10 := !s10 +. (x1 *. y0);
        s11 := !s11 +. (x1 *. y1);
        s12 := !s12 +. (x1 *. y2);
        s13 := !s13 +. (x1 *. y3);
        pa := p + acs;
        pb := q + brs
      done;
      if kd land 1 = 1 then begin
        let p = !pa and q = !pb in
        let x0 = unsafe_get ad p and x1 = unsafe_get ad (p + da) in
        let y0 = unsafe_get bd q and y1 = unsafe_get bd (q + b1) in
        let y2 = unsafe_get bd (q + b2) and y3 = unsafe_get bd (q + b3) in
        s00 := !s00 +. (x0 *. y0);
        s01 := !s01 +. (x0 *. y1);
        s02 := !s02 +. (x0 *. y2);
        s03 := !s03 +. (x0 *. y3);
        s10 := !s10 +. (x1 *. y0);
        s11 := !s11 +. (x1 *. y1);
        s12 := !s12 +. (x1 *. y2);
        s13 := !s13 +. (x1 *. y3)
      end;
      let j0 = !j in
      unsafe_set cd (c0 + j0) !s00;
      unsafe_set cd (c0 + j0 + 1) !s01;
      unsafe_set cd (c0 + j0 + 2) !s02;
      unsafe_set cd (c0 + j0 + 3) !s03;
      unsafe_set cd (c1 + j0) !s10;
      unsafe_set cd (c1 + j0 + 1) !s11;
      unsafe_set cd (c1 + j0 + 2) !s12;
      unsafe_set cd (c1 + j0 + 3) !s13;
      j := j0 + 4
    done;
    while !j < n do
      let s0 = ref 0. and s1 = ref 0. in
      let pa = ref a0 and pb = ref (!j * bcs) in
      for _ = 1 to kd do
        let p = !pa and y = unsafe_get bd !pb in
        s0 := !s0 +. (unsafe_get ad p *. y);
        s1 := !s1 +. (unsafe_get ad (p + da) *. y);
        pa := p + acs;
        pb := !pb + brs
      done;
      unsafe_set cd (c0 + !j) !s0;
      unsafe_set cd (c1 + !j) !s1;
      incr j
    done;
    i := i0 + 2
  done

let product ~m ~n ~kd (ad : buffer) ~ars ~acs (bd : buffer) ~brs ~bcs =
  let c = { rows = m; cols = n; data = alloc (m * n) } in
  let rows lo hi = product_rows ~n ~kd ad ~ars ~acs bd ~brs ~bcs c.data lo hi in
  (match Domain_pool.get_default () with
  | Some pool when m >= 2 && m * n * kd >= par_flop_threshold ->
    Domain_pool.parallel_for pool m rows
  | _ -> rows 0 m);
  c

let matmul a b =
  if a.cols <> b.rows then
    invalid_arg (Printf.sprintf "Mat.matmul: inner dimension mismatch (%d vs %d)" a.cols b.rows);
  product ~m:a.rows ~n:b.cols ~kd:a.cols a.data ~ars:a.cols ~acs:1 b.data ~brs:b.cols ~bcs:1

let matmul_nt a b =
  if a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Mat.matmul_nt: inner dimension mismatch (%d vs %d)" a.cols b.cols);
  product ~m:a.rows ~n:b.rows ~kd:a.cols a.data ~ars:a.cols ~acs:1 b.data ~brs:1 ~bcs:b.cols

let matmul_tn a b =
  if a.rows <> b.rows then
    invalid_arg (Printf.sprintf "Mat.matmul_tn: inner dimension mismatch (%d vs %d)" a.rows b.rows);
  product ~m:a.cols ~n:b.cols ~kd:a.rows a.data ~ars:1 ~acs:a.cols b.data ~brs:b.cols ~bcs:1

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

let add_jitter m eps =
  let c = copy m in
  for i = 0 to min m.rows m.cols - 1 do
    set c i i (get c i i +. eps)
  done;
  c

(* The factorization and the triangular solves check shapes once, then
   index storage unchecked.  Every sum keeps the textbook order, so the
   results are bitwise those of the checked loops. *)

(* Rows go four at a time.  Left of the block's diagonal, the four rows
   walk the columns j in lock step: each load of L(j,k) feeds four
   independent sums, each still over k ascending, and L(j,j) divides all
   four.  The block's own triangle is then finished row by row in
   textbook order.  Block rows past n repeat row n-1, which writes the
   same values again. *)
let cholesky a =
  if a.rows <> a.cols then invalid_arg "Mat.cholesky: not square";
  let n = a.rows in
  let l = zeros n n in
  let open Bigarray.Array1 in
  let ad = a.data and ld = l.data in
  for blk = 0 to ((n + 3) / 4) - 1 do
    let i = 4 * blk in
    let r0 = i * n and r1 = Int.min (i + 1) (n - 1) * n in
    let r2 = Int.min (i + 2) (n - 1) * n and r3 = Int.min (i + 3) (n - 1) * n in
    for j = 0 to i - 1 do
      let rj = j * n in
      let a0 = ref (unsafe_get ad (r0 + j)) and a1 = ref (unsafe_get ad (r1 + j)) in
      let a2 = ref (unsafe_get ad (r2 + j)) and a3 = ref (unsafe_get ad (r3 + j)) in
      for k = 0 to j - 1 do
        let ljk = unsafe_get ld (rj + k) in
        a0 := !a0 -. (unsafe_get ld (r0 + k) *. ljk);
        a1 := !a1 -. (unsafe_get ld (r1 + k) *. ljk);
        a2 := !a2 -. (unsafe_get ld (r2 + k) *. ljk);
        a3 := !a3 -. (unsafe_get ld (r3 + k) *. ljk)
      done;
      let ljj = unsafe_get ld (rj + j) in
      unsafe_set ld (r0 + j) (!a0 /. ljj);
      unsafe_set ld (r1 + j) (!a1 /. ljj);
      unsafe_set ld (r2 + j) (!a2 /. ljj);
      unsafe_set ld (r3 + j) (!a3 /. ljj)
    done;
    for r = i to Int.min (i + 3) (n - 1) do
      for j = i to r do
        let acc = ref (unsafe_get ad ((r * n) + j)) in
        for k = 0 to j - 1 do
          acc := !acc -. (unsafe_get ld ((r * n) + k) *. unsafe_get ld ((j * n) + k))
        done;
        if r = j then begin
          if !acc <= 0. then failwith "Mat.cholesky: matrix not positive definite";
          unsafe_set ld ((r * n) + r) (sqrt !acc)
        end
        else unsafe_set ld ((r * n) + j) (!acc /. unsafe_get ld ((j * n) + j))
      done
    done
  done;
  l

(* Both right-hand sides go together, four rows per pass: each load of
   L(r,j), j left of the block, feeds the sums of both systems, and each
   load of x(j) or y(j) feeds four rows; every sum still runs over j
   ascending.  The rows of the block are then finished in order.  Block
   rows past n repeat row n-1, unused. *)
let solve_lower2 l b c =
  let n = l.rows and ld = l.data in
  if l.cols <> n || Array.length b <> n || Array.length c <> n then
    invalid_arg "Mat.solve_lower2: dimension mismatch";
  let x = Array.copy b and y = Array.copy c in
  let open Bigarray.Array1 in
  for blk = 0 to ((n + 3) / 4) - 1 do
    let i = 4 * blk in
    let i1 = Int.min (i + 1) (n - 1) and i2 = Int.min (i + 2) (n - 1) in
    let i3 = Int.min (i + 3) (n - 1) in
    let l0 = i * n and l1 = i1 * n and l2 = i2 * n and l3 = i3 * n in
    let x0 = ref x.(i) and x1 = ref x.(i1) and x2 = ref x.(i2) and x3 = ref x.(i3) in
    let y0 = ref y.(i) and y1 = ref y.(i1) and y2 = ref y.(i2) and y3 = ref y.(i3) in
    for j = 0 to i - 1 do
      let xj = Array.unsafe_get x j and yj = Array.unsafe_get y j in
      let e = unsafe_get ld (l0 + j) in
      x0 := !x0 -. (e *. xj);
      y0 := !y0 -. (e *. yj);
      let e = unsafe_get ld (l1 + j) in
      x1 := !x1 -. (e *. xj);
      y1 := !y1 -. (e *. yj);
      let e = unsafe_get ld (l2 + j) in
      x2 := !x2 -. (e *. xj);
      y2 := !y2 -. (e *. yj);
      let e = unsafe_get ld (l3 + j) in
      x3 := !x3 -. (e *. xj);
      y3 := !y3 -. (e *. yj)
    done;
    let ax = [| !x0; !x1; !x2; !x3 |] and ay = [| !y0; !y1; !y2; !y3 |] in
    for s = 0 to Int.min 4 (n - i) - 1 do
      let r = i + s in
      for j = i to r - 1 do
        let e = unsafe_get ld ((r * n) + j) in
        ax.(s) <- ax.(s) -. (e *. x.(j));
        ay.(s) <- ay.(s) -. (e *. y.(j))
      done;
      let d = unsafe_get ld ((r * n) + r) in
      x.(r) <- ax.(s) /. d;
      y.(r) <- ay.(s) /. d
    done
  done;
  (x, y)

let solve_lower l b = fst (solve_lower2 l b b)

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

(* Columns go two at a time through the forward substitution; a lone
   last column is solved twice. *)
let inverse_spd a =
  let n = a.rows in
  let l = cholesky a in
  let inv = zeros n n in
  let unit j = Array.init n (fun i -> if i = j then 1. else 0.) in
  for pair = 0 to ((n + 1) / 2) - 1 do
    let j0 = 2 * pair in
    let j1 = Int.min (j0 + 1) (n - 1) in
    let z0, z1 = solve_lower2 l (unit j0) (unit j1) in
    let x0 = solve_upper l z0 and x1 = solve_upper l z1 in
    for i = 0 to n - 1 do
      set inv i j0 x0.(i);
      set inv i j1 x1.(i)
    done
  done;
  inv
