(** PC-algorithm skeleton discovery.

    The structure-learning core of the Unicorn baseline: starting from a
    complete undirected graph over the variables, edges are removed
    whenever a conditional-independence test succeeds, with
    conditioning-set size growing from 0 upwards.  The number of CI tests
    (and the matrices each allocates) grows polynomially in the variable
    count and with the density of the graph — the cost structure behind
    Figure 7. *)

module Mat = Wayfinder_tensor.Mat

type stats = {
  ci_tests : int;  (** CI tests executed. *)
  matrix_cells : int;  (** Matrix cells allocated across all tests. *)
  edges_removed : int;
}

type result = {
  adjacency : bool array array;  (** Symmetric; no self-loops. *)
  separating_sets : (int * int, int list) Hashtbl.t;
      (** For removed edges, the set that separated them. *)
  stats : stats;
}

val skeleton : ?alpha:float -> ?max_cond:int -> Mat.t -> result
(** [skeleton data] with rows = observations, columns = variables.
    [alpha] (default 0.05) is the CI-test significance level; [max_cond]
    (default 3) bounds conditioning-set size.
    @raise Invalid_argument on fewer than 2 columns. *)

val neighbors : result -> int -> int list
(** Test hook: the variables adjacent to one, ascending.  The conformance
    harness's Unicorn adapter ranks the performance column's neighbours
    with it. *)

(** {1 Edge orientation (CPDAG)} *)

type cpdag = {
  directed : bool array array;  (** [directed.(i).(j)] = edge i → j. *)
  undirected : bool array array;  (** Symmetric; disjoint from [directed]. *)
}

val orient : result -> cpdag
(** Orient the skeleton into a completed partially directed acyclic graph:
    v-structures [i → j ← k] for every unshielded triple whose separating
    set excludes [j], then Meek's rules 1 and 2 to propagate orientations
    without creating new v-structures or cycles.
    Test hook: only test_causal calls it (v-structure and chain checks); the Unicorn
    baseline reads the skeleton alone. *)

val parents : cpdag -> int -> int list
(** Variables with a directed edge into [i].
    Test hook: test_causal reads an oriented graph's directed edges with it. *)
