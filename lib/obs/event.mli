(** Trace events.

    Everything a {!Recorder} observes flows to its sinks as one of three
    event kinds, each stamped with both clocks the platform runs on: the
    monotonic wall clock (real seconds spent deciding, fitting models,
    writing files) and the {!Wayfinder_simos.Vclock} virtual clock (the
    simulated build/boot/run durations the budget experiments charge). *)

type stamp = { wall_s : float; virtual_s : float }
(** A point in time on both clocks.  [wall_s] is seconds on the recorder's
    monotonic source (not an epoch); [virtual_s] is the virtual clock. *)

type t =
  | Span of {
      name : string;
      attrs : Attr.t;
      began : stamp;  (** When the span opened. *)
      wall_duration_s : float;
      virtual_duration_s : float;
    }  (** A completed span: a named phase with measured durations. *)
  | Count of { name : string; delta : float; at : stamp }
      (** A counter increment. *)
  | Sample of { name : string; value : float; at : stamp }
      (** One histogram observation. *)
  | Alert of { rule : string; message : string; at : stamp }
      (** An alert rule firing (see [Wayfinder_monitor.Rules]): [rule] is
          the rule's name, [message] the human-readable condition. *)

val name : t -> string
(** The event's name; for [Alert] this is the rule name.
    Test hook: test_obs reads captured events with it. *)

val add_json : Buffer.t -> t -> unit
(** The event as one line of JSON (no trailing newline) — the JSONL sink
    writes exactly this per event.  Wall values ([wall_s],
    [began_wall_s]) are written as decimal seconds with at most six
    decimals when they are whole microseconds, as a {!Recorder} makes
    them; every other float (and a wall value that is not) through
    {!Attr.add_json_float}, which reads back bit for bit, with [null] for
    non-finite values.  Example:
    [{"type":"span","name":"driver.build","wall_s":0,"virtual_s":112.5,
      "began_wall_s":0.930125,"began_virtual_s":4031,"attrs":{"built":true}}] *)

val to_json : t -> string
(** {!add_json} into a fresh string.
    Test hook: test_obs and test_conformance render captured events with it. *)
