module Mat = Wayfinder_tensor.Mat

type t = {
  alpha : float;
  max_cond : int;
  n_vars : int;
  mutable rows : float array list;  (* newest first *)
  mutable count : int;
}

let create ?(alpha = 0.05) ?(max_cond = 3) ~n_vars () =
  if n_vars < 2 then invalid_arg "Unicorn.create: need at least 2 variables";
  { alpha; max_cond; n_vars; rows = []; count = 0 }

let add_observation t row =
  if Array.length row <> t.n_vars then invalid_arg "Unicorn.add_observation: wrong width";
  t.rows <- Array.copy row :: t.rows;
  t.count <- t.count + 1

type iteration_cost = {
  wall_seconds : float;
  ci_tests : int;
  matrix_cells : int;
  stored_cells : int;
}

let refit t =
  if t.count < 4 then invalid_arg "Unicorn.refit: need at least 4 observations";
  let start = Unix.gettimeofday () in
  let data = Mat.of_rows (Array.of_list (List.rev t.rows)) in
  let result = Pc.skeleton ~alpha:t.alpha ~max_cond:t.max_cond data in
  let elapsed = Unix.gettimeofday () -. start in
  { wall_seconds = elapsed;
    ci_tests = result.Pc.stats.Pc.ci_tests;
    matrix_cells = result.Pc.stats.Pc.matrix_cells;
    stored_cells = t.count * t.n_vars }
