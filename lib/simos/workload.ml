type npb_class = Class_s | Class_w | Class_a | Class_b
type npb_program = Ft | Mg | Cg | Is

type t =
  | Wrk of { connections : int; duration_s : int }
  | Redis_benchmark of { clients : int; get_fraction : float; pipeline : int }
  | Sqlite_bench of { operations : int }
  | Npb of { programs : npb_program list; classes : npb_class list }

let default_for = function
  | App.Nginx -> Wrk { connections = 100; duration_s = 60 }
  | App.Redis -> Redis_benchmark { clients = 50; get_fraction = 0.8; pipeline = 1 }
  | App.Sqlite -> Sqlite_bench { operations = 100000 }
  | App.Npb ->
    Npb { programs = [ Ft; Mg; Cg; Is ]; classes = [ Class_s; Class_w; Class_a; Class_b ] }

let matches_app t app =
  match (t, app) with
  | Wrk _, App.Nginx -> true
  | Redis_benchmark _, App.Redis -> true
  | Sqlite_bench _, App.Sqlite -> true
  | Npb _, App.Npb -> true
  | (Wrk _ | Redis_benchmark _ | Sqlite_bench _ | Npb _), _ -> false

let clamp01 x = Stdlib.max 0. (Stdlib.min 1. x)

let concurrency = function
  | Wrk { connections; _ } -> clamp01 (float_of_int connections /. 100.)
  | Redis_benchmark { clients; pipeline; _ } ->
    clamp01 (float_of_int (clients * Stdlib.max 1 pipeline) /. 50.)
  | Sqlite_bench _ -> 0.1  (* single writer *)
  | Npb _ -> 0.

let write_intensity = function
  | Wrk _ -> 0.05  (* access-log writes only *)
  | Redis_benchmark { get_fraction; _ } -> clamp01 (1. -. get_fraction)
  | Sqlite_bench _ -> 1.
  | Npb _ -> 0.

let duration_s = function
  | Wrk { duration_s; _ } -> float_of_int duration_s
  | Redis_benchmark { clients; pipeline; _ } ->
    (* redis-benchmark runs a fixed request count; more parallelism ends
       sooner. *)
    Stdlib.max 20. (60. /. Stdlib.max 1. (float_of_int (clients * Stdlib.max 1 pipeline) /. 50.))
  | Sqlite_bench { operations } -> Stdlib.max 20. (float_of_int operations /. 1800.)
  | Npb { programs; classes } ->
    Stdlib.max 20. (float_of_int (List.length programs * List.length classes) *. 4.)

let class_name = function Class_s -> "S" | Class_w -> "W" | Class_a -> "A" | Class_b -> "B"
let program_name = function Ft -> "FT" | Mg -> "MG" | Cg -> "CG" | Is -> "IS"

let describe = function
  | Wrk { connections; duration_s } ->
    Printf.sprintf "wrk, %d connections, %ds" connections duration_s
  | Redis_benchmark { clients; get_fraction; pipeline } ->
    Printf.sprintf "redis-benchmark, %d clients, %.0f%% GET, pipeline %d" clients
      (100. *. get_fraction) pipeline
  | Sqlite_bench { operations } -> Printf.sprintf "sqlite3 bench, %d INSERTs" operations
  | Npb { programs; classes } ->
    Printf.sprintf "NPB %s classes %s"
      (String.concat "/" (List.map program_name programs))
      (String.concat "/" (List.map class_name classes))
