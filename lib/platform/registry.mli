(** Persistent model registry: trained search models, on disk, reusable.

    [Deeptune.export]/[create_from] (§3.3) transfer knowledge between
    searches, but only within one process.  The registry makes the
    export durable: a versioned, CRC-sealed entry per
    (application, configuration space) {e fingerprint} under a registry
    directory, so any later search — hours or machines away — can
    warm-start from the nearest donor instead of from scratch.  This is
    the "tuning as a continuous service" direction of SemaTune/TuneAgent:
    learned knowledge outlives the run that produced it.

    {b Fingerprints are verifiable, never trusted.}  A fingerprint is
    the pair of the application/hardware identity (the target name, e.g.
    ["sim-unikraft/nginx"]) and the {e full canonical space text}
    ({!Wayfinder_configspace.Space.canonical_description}: every
    parameter's name, stage, kind, ranges, default and pin).  The CRC-32
    [key] over both is only the {e filename}; {!classify} re-compares the
    stored text against the requesting space, so a hash collision can
    never smuggle a donor trained on a different space into a search
    (the truncated-hash lesson of the quarantine-key bug).

    {b Entry layout} is a checkpoint-style sealed envelope: a versioned
    line-oriented body ([wayfinder-model 1] header; training metadata —
    algorithm, seed, samples, metric, objective spec, summary statistics
    and ledger provenance; the model as a flat [%h]-hex float snapshot
    tagged with its kind; the incumbent configurations as value tokens;
    the percent-encoded space text) followed by a [crc] trailer line.
    Floats round-trip bitwise, so a reloaded model predicts bit-for-bit
    identically.  A body without a trailer still loads ([sealed =
    false]) — fsck reports it Unsealed; a trailer that does not match is
    a typed [Malformed], never a misparse.

    {b Writes} go through {!Durable.atomic_publish}: staged tmp write,
    fsync, generation rotation ([key.model] → [key.model.1] → …), rename,
    directory fsync — a crash leaves the old or the new entry, never a
    torn one.

    The model payload is deliberately {e opaque} here (a kind tag plus a
    flat float array, exactly [Dtm.snapshot_to_floats]): the platform
    layer cannot depend on the search core, so [Session] glues
    [Registry] ↔ [Dtm.snapshot_of_floats] ↔ [Deeptune.create_from]. *)

module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param

type fingerprint = {
  app : string;  (** Application/hardware identity, e.g. ["sim-unikraft/nginx"]. *)
  space_text : string;  (** {!Space.canonical_description} of the space. *)
  key : string;  (** CRC-32 hex over [app] and [space_text] — the filename stem. *)
}

type meta = {
  algo : string;  (** Search algorithm that trained the model. *)
  seed : int;
  samples : int;  (** Evaluations the model was trained on. *)
  metric_name : string;
  unit_name : string;
  maximize : bool;
  objectives : string list;  (** Objective-spec names; empty for scalar runs. *)
  best_value : float option;  (** Best raw metric value seen (None: no success). *)
  mean_value : float;  (** Mean raw metric value over successful samples. *)
  crash_rate : float;  (** Crash fraction of the training run, in [0, 1]. *)
  ledger : string option;  (** Provenance: the run ledger path, if recorded. *)
}

type t = {
  fp : fingerprint;
  meta : meta;
  model_kind : string;  (** ["dtm"] or ["dtm-multi"]. *)
  model : float array;  (** Flat snapshot floats (opaque to the platform). *)
  incumbents : Space.configuration list;  (** Best configurations, best first. *)
  sealed : bool;  (** False when the CRC trailer was missing (torn tail). *)
}

type error =
  | Unsupported_version of { found : int; expected : int }
  | Malformed of string  (** Unreadable file or corrupt content. *)
  | Io of Durable.io_error

val error_to_string : error -> string

val fingerprint : app:string -> Space.t -> fingerprint

val entry_path : dir:string -> fingerprint -> string
(** [dir ^ "/" ^ key ^ ".model"].
    Test hook: test_registry plants entries at a fingerprint's path with it. *)

val to_string : t -> string
(** The sealed envelope (body + CRC trailer); [sealed] is ignored —
    rendering always seals.
    Test hook: tests plant and corrupt entries with it; {!save} writes through it. *)

val of_string : string -> (t, error) result
(** Verifies the CRC trailer when present ([sealed = true]); a parseable
    body without a trailer loads with [sealed = false]; anything else is
    typed [Malformed]. *)

val save :
  ?backend:Durable.backend -> ?keep:int -> dir:string -> t -> (string, error) result
(** Durable atomic publish of the sealed entry at
    [entry_path ~dir t.fp], rotating [keep] generations
    ({!Durable.atomic_publish}); returns the path written.  The
    directory must already exist ([Session.run] creates it). *)

val load : ?backend:Durable.backend -> string -> (t, error) result
(** Load one entry by path (no fingerprint check — see {!classify}). *)

(** How well a donor entry matches a requesting space. *)
type quality =
  | Exact  (** Same app, byte-identical canonical space text. *)
  | Overlap of { shared : int; donor_params : int; target_params : int }
      (** [shared] parameters agree in name, stage, kind and ranges. *)

val classify : fingerprint -> t -> quality option
(** How an entry matches a requesting fingerprint, {e verified}:
    [Exact] only when the entry's stored app and full canonical space
    text equal the request's, whatever its filename hash says; else
    [Overlap] when the two spaces share a parameter (name, stage and
    kind agree — defaults and pins may differ, a re-defaulted parameter
    is still transferable); [None] when they share none. *)

val list : dir:string -> (string * (t, error) result) list
(** Every primary entry ([*.model], no rotated [.N], [.tmp] or [.bak]
    suffix) in the directory, sorted by filename; real filesystem only.
    An empty or missing directory lists nothing. *)

val lookup : dir:string -> fingerprint -> (string * t * quality) list
(** Donor candidates for a search, each {!classify}d, best first:
    exact-fingerprint matches, then same-app entries by descending
    shared-parameter overlap, then other-app entries by overlap.  Entries
    that fail to load and donors sharing no parameter are skipped.  Real
    filesystem only. *)

val project_incumbents : t -> Space.t -> Space.configuration list
(** The donor's incumbent configurations re-expressed in a (possibly
    grown or shrunk) target space: shared parameters keep the donor's
    value (clamped into the target range), new parameters take their
    defaults, dropped parameters vanish.  Order preserved, best first. *)
