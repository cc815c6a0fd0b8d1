(** Benchmark workloads (§4).

    Each application is measured under a concrete workload: Nginx with wrk
    (connection count, duration), Redis with redis-benchmark (GET/SET mix,
    pipeline depth), SQLite with LevelDB's sqlite3 INSERT benchmark
    (operation count), and NPB with a program/class selection.

    Wayfinder specializes *for a particular workload* (§3.5): a change in
    workload changes which parameters matter — e.g. few wrk connections
    mute the backlog/somaxconn benefits, a write-heavy Redis mix
    strengthens the writeback knobs — so the same kernel can have different
    optima under different workloads.  {!Sim_linux.evaluate} accepts a
    workload and shifts its performance model accordingly. *)

type npb_class = Class_s | Class_w | Class_a | Class_b
type npb_program = Ft | Mg | Cg | Is

type t =
  | Wrk of { connections : int; duration_s : int }
      (** HTTP load against Nginx. *)
  | Redis_benchmark of { clients : int; get_fraction : float; pipeline : int }
      (** [get_fraction] ∈ [\[0, 1\]]: 1 = pure GET, 0 = pure SET. *)
  | Sqlite_bench of { operations : int }
      (** Sequential INSERTs, LevelDB's db_bench_sqlite3 style. *)
  | Npb of { programs : npb_program list; classes : npb_class list }

val default_for : App.t -> t
(** The paper's setups: wrk with 100 connections / 60 s; redis-benchmark
    with 50 clients, 80 % GET, no pipelining; 100 000 INSERTs; NPB
    FT/MG/CG/IS over classes S/W/A/B. *)

val matches_app : t -> App.t -> bool
(** Whether a workload drives the given application. *)

val concurrency : t -> float
(** Relative connection-level pressure in [\[0, 1\]] (1 = the default
    workload's pressure or more).  Scales the benefit of backlog-type
    parameters. *)

val write_intensity : t -> float
(** Fraction of write traffic in [\[0, 1\]]; scales writeback-knob
    sensitivity. *)

val duration_s : t -> float
(** Virtual benchmark duration implied by the workload. *)

val describe : t -> string
