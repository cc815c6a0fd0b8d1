module Mat = Wayfinder_tensor.Mat

type stats = { ci_tests : int; matrix_cells : int; edges_removed : int }

type result = {
  adjacency : bool array array;
  separating_sets : (int * int, int list) Hashtbl.t;
  stats : stats;
}

(* Enumerate the size-[k] subsets of [pool], calling [f] on each until it
   returns [Some _]. *)
let rec first_subset pool k f =
  if k = 0 then f []
  else
    match pool with
    | [] -> None
    | x :: rest -> (
      match first_subset rest (k - 1) (fun s -> f (x :: s)) with
      | Some _ as r -> r
      | None -> first_subset rest k f)

let skeleton ?(alpha = 0.05) ?(max_cond = 3) data =
  let d = data.Mat.cols in
  if d < 2 then invalid_arg "Pc.skeleton: need at least 2 variables";
  let n = data.Mat.rows in
  let corr = Citest.correlation_matrix data in
  let adjacency = Array.init d (fun i -> Array.init d (fun j -> i <> j)) in
  let separating_sets = Hashtbl.create 64 in
  let ci_tests = ref 0 and matrix_cells = ref (d * d * 2) and edges_removed = ref 0 in
  let neighbors_of i exclude =
    let out = ref [] in
    for j = d - 1 downto 0 do
      if adjacency.(i).(j) && j <> exclude then out := j :: !out
    done;
    !out
  in
  for level = 0 to max_cond do
    for i = 0 to d - 1 do
      for j = 0 to d - 1 do
        if i < j && adjacency.(i).(j) then begin
          let pool = neighbors_of i j in
          if List.length pool >= level then begin
            let separated =
              first_subset pool level (fun s ->
                  incr ci_tests;
                  matrix_cells := !matrix_cells + Citest.cells_for_test level;
                  let r = Citest.partial_correlation corr i j s in
                  if Citest.fisher_z_independent ~r ~n ~cond:level ~alpha then Some s else None)
            in
            match separated with
            | Some s ->
              adjacency.(i).(j) <- false;
              adjacency.(j).(i) <- false;
              incr edges_removed;
              Hashtbl.replace separating_sets (i, j) s
            | None -> ()
          end
        end
      done
    done
  done;
  { adjacency;
    separating_sets;
    stats = { ci_tests = !ci_tests; matrix_cells = !matrix_cells; edges_removed = !edges_removed } }

let neighbors result i =
  let out = ref [] in
  Array.iteri (fun j adj -> if adj then out := j :: !out) result.adjacency.(i);
  List.rev !out

type cpdag = { directed : bool array array; undirected : bool array array }

let orient result =
  let d = Array.length result.adjacency in
  let undirected = Array.map Array.copy result.adjacency in
  let directed = Array.init d (fun _ -> Array.make d false) in
  let sepset i j =
    match Hashtbl.find_opt result.separating_sets (min i j, max i j) with
    | Some s -> s
    | None -> []
  in
  let adjacent i j = undirected.(i).(j) || directed.(i).(j) || directed.(j).(i) in
  let direct i j =
    if undirected.(i).(j) then begin
      undirected.(i).(j) <- false;
      undirected.(j).(i) <- false;
      directed.(i).(j) <- true
    end
  in
  (* V-structures: for every unshielded triple i - j - k with i, k
     non-adjacent, orient i -> j <- k iff j is not in sep(i, k). *)
  for j = 0 to d - 1 do
    for i = 0 to d - 1 do
      for k = i + 1 to d - 1 do
        if i <> j && k <> j && result.adjacency.(i).(j) && result.adjacency.(j).(k)
           && (not result.adjacency.(i).(k))
           && not (List.mem j (sepset i k))
        then begin
          direct i j;
          direct k j
        end
      done
    done
  done;
  (* Meek rules 1-2 to fixpoint. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for a = 0 to d - 1 do
      for b = 0 to d - 1 do
        if directed.(a).(b) then
          for c = 0 to d - 1 do
            (* R1: a -> b, b - c, a and c non-adjacent  =>  b -> c *)
            if c <> a && undirected.(b).(c) && not (adjacent a c) then begin
              direct b c;
              changed := true
            end;
            (* R2: a -> b -> c with a - c  =>  a -> c *)
            if directed.(b).(c) && undirected.(a).(c) then begin
              direct a c;
              changed := true
            end
          done
      done
    done
  done;
  { directed; undirected }

let parents cpdag i =
  let out = ref [] in
  Array.iteri (fun j row -> if row.(i) then out := j :: !out) cpdag.directed;
  List.rev !out
