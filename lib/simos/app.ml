type t = Nginx | Redis | Sqlite | Npb

let all = [ Nginx; Redis; Sqlite; Npb ]
let name = function Nginx -> "nginx" | Redis -> "redis" | Sqlite -> "sqlite" | Npb -> "npb"

let of_name = function
  | "nginx" -> Some Nginx
  | "redis" -> Some Redis
  | "sqlite" -> Some Sqlite
  | "npb" -> Some Npb
  | _ -> None

type profile = Network_intensive | Storage_intensive | Compute_intensive

let profile = function
  | Nginx | Redis -> Network_intensive
  | Sqlite -> Storage_intensive
  | Npb -> Compute_intensive

type metric = { metric_name : string; unit_name : string; maximize : bool }

let metric = function
  | Nginx -> { metric_name = "throughput"; unit_name = "req/s"; maximize = true }
  | Redis -> { metric_name = "throughput"; unit_name = "req/s"; maximize = true }
  | Sqlite -> { metric_name = "operation latency"; unit_name = "us/op"; maximize = false }
  | Npb -> { metric_name = "aggregate rate"; unit_name = "Mop/s"; maximize = true }

let default_performance = function
  | Nginx -> 15731.
  | Redis -> 58000.
  | Sqlite -> 284.
  | Npb -> 1497.

let cores_used = function Nginx | Npb -> 16 | Redis | Sqlite -> 1

let score app v = if (metric app).maximize then v else -.v
