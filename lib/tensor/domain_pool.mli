(** Fixed-size pool of OCaml 5 domains for deterministic data-parallel loops.

    The pool runs {e pure} index-parallel work on multiple cores while
    guaranteeing results bitwise identical to a sequential run: iterations
    are partitioned by index (never by timing), each iteration executes
    exactly the code it would execute sequentially, and nothing about
    chunk scheduling is observable in the output.  A pool of size 1 (or a
    nested/concurrent call) degrades to inline execution on the calling
    domain. *)

type t

val create : int -> t
(** [create size] spawns [size - 1] worker domains; the calling domain is
    the remaining lane.  [size <= 1] creates an inline pool that spawns
    nothing. *)

val parallel_for : ?chunk:int -> t -> int -> (int -> int -> unit) -> unit
(** [parallel_for t n f] partitions [0, n) into chunks and calls
    [f lo hi] for disjoint ranges covering every index, in parallel across
    the pool's lanes.  Iterations must be independent; [f] must not assume
    any ordering between chunks.  Returns once all [n] indices are
    processed.  The first exception raised by any chunk is re-raised on
    the calling domain.  Nested or concurrent calls run inline. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  The pool must not be
    used afterwards (calls degrade to inline execution). *)

(** {1 Ambient default pool}

    Hot kernels ({!Mat.matmul}) consult an ambient pool so the whole stack
    parallelizes without plumbing a pool argument through every layer —
    safe because pooled results are bitwise equal to sequential ones. *)

val get_default : unit -> t option

val with_default : t option -> (unit -> 'a) -> 'a
(** [with_default p f] runs [f] with the ambient pool set to [p],
    restoring the previous ambient pool afterwards (also on exceptions). *)
