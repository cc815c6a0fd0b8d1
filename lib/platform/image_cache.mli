(** A deterministic, bounded, shared cache of built images.

    The paper's §3.1 rebuild-skip used to be a per-slot "last built image"
    baseline, so a multi-worker run rebuilt an image another slot had just
    built and every fresh or resumed run started cold.  This cache is
    shared by all virtual evaluation slots and keyed by
    {!Wayfinder_configspace.Space.stage_key} — the canonical
    content-address of a configuration's non-runtime projection — so any
    slot can skip the build phase when {e any} slot already built that
    image, and runtime-only variation never invalidates an entry.

    Eviction is exact LRU under a fixed capacity.  Deterministic build
    failures are {e negative-cached} ({!Build_failed}): re-proposing a
    configuration whose image is known not to build costs a floor charge
    instead of a doomed build.  The structure is fully deterministic
    (recency is an intrusive doubly-linked list, never a clock), and
    {!to_alist}/{!of_alist} round-trip contents {e and} recency order so
    checkpoint format 3 can persist it and a resumed run continues with
    the exact warm cache the killed run held. *)

type status =
  | Built  (** The image exists; the build phase can be skipped. *)
  | Build_failed of Failure.t
      (** The image deterministically fails to build; re-evaluations are
          served this failure at a floor charge (negative caching). *)

type entry = {
  status : status;
  origin : int;  (** The evaluation slot that produced the entry. *)
}

type config
(** Cache configuration (today: just a validated capacity). *)

val capacity : int -> config
(** @raise Invalid_argument when the capacity is below 1. *)

type t
(** The cache; mutable. *)

val create : config -> t

val peek : t -> string -> entry option
(** Lookup {e without} promoting the entry (recency unchanged). *)

val touch : t -> string -> unit
(** Promote the key to most recently used, if present. *)

val find : t -> string -> entry option
(** Lookup and promote ([peek] + [touch]). *)

val add : t -> string -> entry -> (string * entry) option
(** Insert (or overwrite) the entry and promote it to most recently used;
    returns the evicted least-recently-used binding when the insert
    overflowed the capacity. *)

val cap : t -> int
(** The configured capacity. *)

val to_alist : t -> (string * entry) list
(** Contents in recency order, most recently used first. *)

val of_alist : config -> (string * entry) list -> t
(** Rebuild a cache from a most-recently-used-first listing (the exact
    inverse of {!to_alist}).
    Test hook: test_image_cache builds caches in a given state with it.
    @raise Invalid_argument on duplicate keys or more entries than the
    capacity. *)
