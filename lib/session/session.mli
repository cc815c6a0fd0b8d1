(** One specialization job, as a library call.

    [wayfinder run] is {!plan} then {!run}: the CLI parses its flags
    into a {!Spec.t}, and prints what the hooks and the {!outcome} hand
    back.  {!plan} makes every check the run makes before it starts and
    opens no output, so a refused job leaves existing files alone; only
    {!run} opens the ledger, the trace and the scrape file, and one
    cleanup path closes them. *)

module P = Wayfinder_platform

type hooks = {
  info : string -> unit;
      (** A line of the run's report as it happens: a warm-start import or
          seeding, ["resuming from …"], and, unless [quiet], one line per
          iteration. *)
  notice : string -> unit;
      (** A warning: checkpoint-recovery and drift notices, a cold start
          for want of a donor, an alert firing, a failed scrape export. *)
  progress : string -> unit;  (** A [--progress] line. *)
}
(** Called at the moment each line happens, in the run's order. *)

val target : os:string -> app:string -> (P.Target.t, string) result
(** The simulator target [os] runs [app] on.  [Error] names the known
    OSes or applications. *)

type plan
(** A job that passed every check.  It holds the searcher it built, so
    it runs once. *)

val plan : ?hooks:hooks -> Spec.t -> (plan, string) result
(** Make the run's checks, in this order: the registry, metrics and
    alert flags; the job file; the checkpoint for [resume], whose seed,
    worker count and image-cache capacity then replace the flags'; the
    scenario and its objectives; the target (the job's os and app
    replace the flags', and its space bounds the target's); the
    algorithm, with the warm start it asks for; [progress]; every
    output's directory; and {!P.Driver.validate}.  It reads the job,
    checkpoint, registry, drift-ledger and scenario files, and opens no
    output.  [Error] carries the message for the user.  [hooks] (default
    {!silent}) also serve {!run}. *)

type outcome = {
  target : P.Target.t;  (** The target searched: the job's space, faults, scenario. *)
  result : P.Driver.result;
  impacts : (string * float) array option;
      (** DeepTune's learned parameter impacts, once it has more than 20
          observations. *)
  csv : (string, string) result option;  (** [--csv]: the path written, or why not. *)
  model : (string * P.Registry.t, string) result option;
      (** [--save-model]: the path and the entry published, or why not. *)
}

val run : plan -> (outcome, string) result
(** Open the ledger (a resumed run keeps the rows its checkpoint covers),
    the trace and the scrape-file writer, install the [domains] pool and
    run the driver.  The ledger is sealed and the trace closed on a
    normal exit and when the driver raises [Invalid_argument] or
    {!P.Durable.Io_error}, which become [Error].  After a normal exit it
    writes the CSV, the registry entry and the final scrape file; a
    failure of the first two is in the outcome, of the last a notice. *)
