(** The evaluation applications of §4.

    Nginx (web server, benchmarked with wrk) and Redis (key-value store,
    redis-benchmark) are network-intensive; SQLite (LevelDB's sqlite3 INSERT
    benchmark) is storage-intensive; NPB (NAS Parallel Benchmarks, classes
    S/W/A/B of FT, MG, CG, IS) is CPU- and memory-intensive.  Each carries
    the metric the paper optimizes and its default ("Lupine Linux")
    performance from Table 2. *)

type t = Nginx | Redis | Sqlite | Npb

val all : t list
val name : t -> string
val of_name : string -> t option

type profile = Network_intensive | Storage_intensive | Compute_intensive

val profile : t -> profile

type metric = {
  metric_name : string;
  unit_name : string;
  maximize : bool;  (** SQLite's μs/op is minimised; the rest maximised. *)
}

val metric : t -> metric

val default_performance : t -> float
(** Table 2's "Lupine Linux" column: Nginx 15731 req/s, Redis 58000 req/s,
    SQLite 284 μs/op, NPB 1497 Mop/s. *)

val cores_used : t -> int
(** Redis and SQLite are single-threaded (1 core); Nginx and NPB use 16. *)

val score : t -> float -> float
(** Higher-is-better view of a raw metric value (negated for minimised
    metrics), so search code can always maximise. *)
