(* A record with nothing to hide: no interface file, so its fields are
   declared once. *)

(** One field per [wayfinder run] flag. *)
type t = {
  job : string option;  (** [--job]: a YAML job file (its os, app, seed, favor, budget, space). *)
  os : string;  (** [--os] *)
  app : string;  (** [--app] *)
  algorithm : string;  (** [--algorithm] *)
  iterations : int option;  (** [-n] *)
  budget : float option;  (** [--budget]: virtual seconds; beats [iterations]. *)
  seed : int;  (** [--seed]; 0 takes the job's. *)
  favor : string option;  (** [--favor] *)
  csv : string option;  (** [--csv] *)
  trace : string option;  (** [--trace] *)
  ledger : string option;  (** [--ledger] *)
  progress : int option;  (** [--progress] *)
  timings : bool;  (** [--timings]: read by the printer only. *)
  quiet : bool;  (** [--quiet]: no per-iteration line. *)
  checkpoint : string option;  (** [--checkpoint] *)
  checkpoint_every : int;  (** [--checkpoint-every] *)
  keep_checkpoints : int;  (** [--keep-checkpoints] *)
  resume : bool;  (** [--resume] *)
  fault_rate : float;  (** [--fault-rate] *)
  workers : int;  (** [--workers] *)
  batch : int option;  (** [--batch] *)
  image_cache : int option;  (** [--image-cache] *)
  domains : int;  (** [--domains] *)
  scenario : string option;  (** [--scenario] *)
  scenario_stride : int;  (** [--scenario-stride] *)
  objectives : string list option;  (** [--objectives] *)
  weights : float list option;  (** [--weights] *)
  pareto : bool;  (** [--pareto]: read by the printer only. *)
  resilient : bool;  (** [--resilient] *)
  retries : int option;  (** [--retries] *)
  build_timeout : float option;  (** [--build-timeout] *)
  boot_timeout : float option;  (** [--boot-timeout] *)
  run_timeout : float option;  (** [--run-timeout] *)
  measure_repeats : int option;  (** [--measure-repeats] *)
  quarantine_after : int option;  (** [--quarantine-after] *)
  registry : string option;  (** [--registry] *)
  save_model : bool;  (** [--save-model] *)
  warm_start : string option;  (** [--warm-start]: [auto] or a registry key or path. *)
  drift_ledger : string option;  (** [--drift-ledger] *)
  metrics_out : string option;  (** [--metrics-out] *)
  metrics_every : int;  (** [--metrics-every] *)
  alerts : string option;  (** [--alerts] *)
}

(** Every flag at its default: [sim-linux], [nginx], [deeptune], seed 0,
    one worker, one domain, {!Wayfinder_platform.Driver.default_checkpoint_every}, one
    checkpoint generation, a scrape every 10 rows, nothing written. *)
let default =
  { job = None; os = "sim-linux"; app = "nginx"; algorithm = "deeptune"; iterations = None;
    budget = None; seed = 0; favor = None; csv = None; trace = None; ledger = None;
    progress = None; timings = false; quiet = false; checkpoint = None;
    checkpoint_every = Wayfinder_platform.Driver.default_checkpoint_every;
    keep_checkpoints = 1; resume = false;
    fault_rate = 0.; workers = 1; batch = None; image_cache = None; domains = 1;
    scenario = None; scenario_stride = 0; objectives = None; weights = None; pareto = false;
    resilient = false; retries = None; build_timeout = None; boot_timeout = None;
    run_timeout = None; measure_repeats = None; quarantine_after = None; registry = None;
    save_model = false; warm_start = None; drift_ledger = None; metrics_out = None;
    metrics_every = 10; alerts = None }
