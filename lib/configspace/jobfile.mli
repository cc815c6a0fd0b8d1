(** Wayfinder job files.

    A job file (§3.1) is the YAML artifact describing one specialization
    job: the target OS and application, the metric to optimize, the search
    budget, the stage to favor, security pins, and the configuration space
    itself.  Example:

    {v
    name: nginx-linux
    os: sim-linux
    app: nginx
    metric: throughput
    maximize: true
    iterations: 250
    seed: 42
    favor: runtime
    fixed:
      - name: kernel.randomize_va_space
        value: "1"
    params:
      - name: net.core.somaxconn
        stage: runtime
        type: int
        min: 16
        max: 65536
        log: true
        default: 128
      - name: net.core.default_qdisc
        stage: runtime
        type: categorical
        values: [pfifo_fast, fq, fq_codel]
        default: pfifo_fast
    v} *)

type t = {
  job_name : string;
  os : string;
  app : string;
  metric : string;
  maximize : bool;
  iterations : int option;
  time_budget_s : float option;
  seed : int;
  favor : Param.stage option;
  space : Space.t;  (** Already restricted by the job's [fixed] pins. *)
}

exception Schema_error of string

val of_yaml : Wayfinder_yamlite.Yamlite.t -> t
(** Test hook: tests parse job documents built in memory with it; {!load} reads files
    through it.
    @raise Schema_error on missing or ill-typed fields. *)

val load : string -> t
(** Parse a job file from disk.
    @raise Wayfinder_yamlite.Yamlite.Parse_error on YAML errors,
    @raise Schema_error on schema errors. *)

val parse : string -> t
(** Parse a job file from a string. *)

val to_yaml : t -> Wayfinder_yamlite.Yamlite.t
(** Render a job back to YAML (pins are emitted under [fixed]). *)

val restrict : t -> Space.t -> (Space.t, string) result
(** [restrict job sim] is the simulator's space [sim] as the job sees it.
    An explorable int parameter takes the job's [min], [max] and
    [default], keeping the simulator's stage and log scale.  A
    categorical [values] list of one value pins the parameter to it; a
    list of all the simulator's values, in any order, keeps it explorable
    with the job's [default] mapped by name.  The job's [fixed] pins apply
    to the parameters [sim] has, and every parameter of [sim] the job does
    not list is pinned to its default.  [Error] names the parameter and
    both ranges when a job range is not inside the simulator's, both lists
    for any other categorical list, or carries the message of a pin [sim]
    cannot hold. *)
