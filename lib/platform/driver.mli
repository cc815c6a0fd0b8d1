(** The Wayfinder core loop (§3.1), hardened against a faulty testbed
    and generalized to [workers] concurrent virtual evaluation slots.

    Iteratively: (1) ask the search algorithm for configurations — one at
    a time, or up to [batch] per ask through the algorithm's native
    [propose_batch] — (2) build and boot each image and benchmark the
    application — virtual durations advance the
    {!Wayfinder_simos.Vclock}, and with [workers > 1] the build / boot /
    benchmark pipelines of several slots overlap on its discrete-event
    scheduler — and (3) record each outcome as it completes and update
    the algorithm.  The build task is skipped when a shared
    {!Image_cache} — keyed by {!Space.stage_key}, the content-address of
    the configuration's non-runtime projection — already holds the image
    {e any} slot built; deterministic build failures are negative-cached
    and served at a floor charge.  The loop stops when the budget
    (iterations or virtual time) is exhausted, the algorithm exhausts
    its space, or the invalid cap trips, and returns the best
    configuration found.

    A {!Resilience.policy} governs how the loop treats the testbed:
    per-phase virtual timeouts (a hung boot becomes a [Boot_timeout]
    charged at the cap), bounded retry with exponential backoff for
    {!Failure.retryable} outcomes, corroborating re-measurement with
    median outlier rejection, and quarantine of configurations that
    repeatedly exhaust their retries.  The default policy
    ({!Resilience.none}) reproduces the pre-resilience semantics exactly.

    Passing [checkpoint_path] saves a {!Checkpoint.t} snapshot every
    [checkpoint_every] iterations into an append-only journal, written by
    a background {!Durable.Publisher} so the loop never waits on the
    disk, and saves once more at the end; passing [resume_from] replays a checkpoint
    through the algorithm's normal propose/observe path and then
    continues the run — a killed search resumed this way reproduces the
    uninterrupted run bit-for-bit.

    Every iteration is traced through a {!Wayfinder_obs.Recorder} as a
    [driver.iteration] span split into phases — [driver.propose],
    [driver.validate], [driver.evaluate] and [driver.observe] carry wall
    durations; [driver.build], [driver.boot], [driver.run],
    [driver.invalid], [driver.retry], [driver.quarantined],
    [driver.negative_cache] and [driver.replay] carry the virtual
    seconds charged to the budget (the build span's [rebuild_skipped] /
    [cache_hit] attrs note when the §3.1 rebuild-skip fired).  Counters
    track iterations, builds charged, rebuild skips, image-cache
    activity ([driver.image_cache.hits] / [.misses] / [.evictions] /
    [.negative_hits], and [.cross_slot_hits] when another slot built the
    image), invalid proposals, retries, re-measurements, outlier
    rejections, quarantines and per-kind failures; the aggregated
    snapshot is returned on {!result.metrics}. *)

module Space = Wayfinder_configspace.Space
module Vclock = Wayfinder_simos.Vclock
module Obs = Wayfinder_obs

type budget = Iterations of int | Virtual_seconds of float

type stop_reason =
  | Budget_exhausted  (** The iteration or virtual-time budget ran out. *)
  | Invalid_cap
      (** [max_consecutive_invalid] invalid proposals in a row — the
          algorithm is stuck outside the valid space and further spend
          would be wasted. *)
  | Space_exhausted
      (** The algorithm raised {!Search_algorithm.Space_exhausted} (or
          returned a partial batch): every configuration it will ever
          propose has been evaluated — a finite grid ran out before the
          budget did. *)

type result = {
  history : History.t;
  best : History.entry option;
  clock : Vclock.t;
  iterations : int;
  stop_reason : stop_reason;
  pareto : Pareto.t;
      (** Non-dominated front of every successful objective vector a
          multi-objective target reported, tagged by entry index.  Empty
          (with an empty spec) for scalar targets.  Deterministic across
          worker counts: the archive is a pure function of the set of
          completed points. *)
  metrics : Obs.Metrics.snapshot;
      (** Aggregated counters and per-phase timing histograms for the
          run.  The virtual-phase sums (see {!virtual_phases}) equal
          {!History.total_eval_seconds}. *)
}

val virtual_phases : (string * string) list
(** [(label, span name)] for every phase charged to the virtual clock:
    build, boot, run, invalid, retry, quarantined, negative-cache,
    replay. *)

val default_invalid_floor_s : float
(** 1 virtual second. *)

val default_max_consecutive_invalid : int
(** 1000. *)

val default_checkpoint_every : int
(** 10 iterations. *)

val validate :
  ?clock:Vclock.t ->
  ?invalid_floor_s:float ->
  ?max_consecutive_invalid:int ->
  ?resilience:Resilience.policy ->
  ?checkpoint_every:int ->
  ?checkpoint_keep:int ->
  ?resume_from:Checkpoint.t ->
  ?workers:int ->
  ?batch:int ->
  ?image_cache:Image_cache.config ->
  ?scenario:Scenario.t ->
  budget:budget ->
  unit ->
  unit
(** {!run}'s checks on these arguments, with its defaults and messages;
    {!run} calls it first.  Call it before opening a run's outputs, so a
    refused run leaves them alone.  @raise Invalid_argument as {!run}. *)

val run :
  ?seed:int ->
  ?clock:Vclock.t ->
  ?on_iteration:(History.entry -> unit) ->
  ?on_record:(History.entry -> Search_algorithm.belief option -> unit) ->
  ?obs:Obs.Recorder.t ->
  ?invalid_floor_s:float ->
  ?max_consecutive_invalid:int ->
  ?resilience:Resilience.policy ->
  ?checkpoint_path:string ->
  ?checkpoint_backend:Durable.backend ->
  ?checkpoint_every:int ->
  ?checkpoint_keep:int ->
  ?resume_from:Checkpoint.t ->
  ?workers:int ->
  ?batch:int ->
  ?image_cache:Image_cache.config ->
  ?scenario:Scenario.t ->
  target:Target.t ->
  algorithm:Search_algorithm.t ->
  budget:budget ->
  unit ->
  result
(** Deterministic given [seed] (including for [workers > 1]: completions
    sit on the clock's min-heap with FIFO tie-break, so the interleaving
    is fully reproducible).  [on_iteration] observes each entry as it is
    recorded (useful for live series); replayed entries of a resumed run
    are not re-announced.  [on_record] additionally receives the
    searcher's pre-evaluation {!Search_algorithm.belief} about the
    entry's configuration — captured at launch time via the algorithm's
    pure [predict] hook, delivered at completion — and is the hook the
    run-ledger writer attaches to.  [predict] is only consulted when
    [on_record] is present, so recorded runs stay byte-for-byte
    identical to unrecorded ones; like [on_iteration], [on_record] is
    not re-fired for replayed entries.  [obs] attaches an external recorder (e.g.
    with a JSONL sink); by default a private sink-less recorder feeds
    {!result.metrics}.  Invalid proposals (violating the space or its
    pins) are recorded as {!Failure.Invalid_configuration} and charged
    [invalid_floor_s] virtual seconds (default
    {!default_invalid_floor_s}) so a [Virtual_seconds] budget always
    terminates; after [max_consecutive_invalid] consecutive invalid
    proposals (default {!default_max_consecutive_invalid}) the run stops
    with {!Invalid_cap}.  A [Virtual_seconds] budget is measured relative
    to the clock reading at start, so a caller-supplied, already-advanced
    clock gets the full budget.

    [workers] (default 1) is the number of virtual evaluation slots kept
    busy; [batch] (default [workers]) caps how many proposals are asked
    for per fill — when the algorithm has a native [propose_batch] and
    more than one slot is free, a single ask returns up to [batch]
    configurations, otherwise proposals fall back to sequential
    [propose] calls.  Entries are recorded in {e completion} order;
    [History.entry.index] is the proposal sequence number, so with
    [workers > 1] history indices need not be monotone.  An
    {!Iterations} budget counts proposals (all of which complete); the
    invalid cap and a [Virtual_seconds] budget stop new launches, and
    tasks already in flight drain to completion and are recorded.  With
    [workers = 1] the engine is byte-for-byte equivalent to
    {!run_sequential}.  With [workers > 1] the recorder additionally
    carries a [driver.batch.size] histogram (proposals obtained per
    ask), a [driver.worker.busy] histogram (busy slots at each
    completion) and per-slot [driver.worker] spans.

    [image_cache] configures the shared image cache (default capacity:
    [workers] — pooled, where the pre-cache engine kept one baseline
    image per slot).  With [workers = 1] and capacity 1 the cache {e is}
    the historical single-baseline rebuild-skip, byte-for-byte.  Larger
    capacities let images survive across intervening builds and across
    slots: any slot whose proposal shares a {!Space.stage_key} with a
    cached image skips the build phase entirely (0 build seconds,
    [driver.image_cache.hits]; [.cross_slot_hits] when another slot
    built it); evictions are exact LRU.

    [scenario] attaches trace-driven workload state: the cursor advances
    by the scenario's stride exactly once per real evaluation launched
    (floor-charged outcomes — invalid, quarantined, negative-cached —
    consume no trace time), in proposal order, so the trace slice each
    trial replays is identical across worker counts.  Checkpoints
    persist the cursor (and the Pareto archive); resuming a scenario run
    requires passing an equivalent [scenario], and resuming a
    scenario-less checkpoint with one (or vice versa) fails loudly.

    [resilience] defaults to {!Resilience.none}.  [checkpoint_path]
    enables periodic checkpointing — the checkpoint persists
    in-flight slot state {e and} the image cache (contents + recency
    order), so a killed multi-worker run resumes mid-batch with its
    warm cache; [resume_from] requires a fresh clock positioned at the
    checkpoint's budget origin and an algorithm / seed / [workers] /
    [batch] / image-cache capacity identical to the checkpointed run.
    The run's first save writes the journal whole ({!Checkpoint.start},
    published like {!Checkpoint.save}); every later save appends the
    entries completed since the previous one and one state record
    ({!Checkpoint.extend}), and the writer fsyncs each batch of appends.
    [checkpoint_keep] (default 1) is the number of checkpoint
    generations retained by that first, whole-file save: it rotates the
    previous file (a resumed run's own killed journal) to [path.1],
    [path.2], …, so {!Checkpoint.load_latest} can fall back past a
    primary with no valid record.  [checkpoint_backend] (default
    {!Durable.fs}) is where the journal is written.  Every exit —
    budget, stop reason or exception — first waits for the background
    writer; a normal exit then writes the final save itself when the run
    did not end on the cadence, and waits for it.  So after any exit the
    journal's newest record is the newest snapshot.  After a [kill -9]
    the newest valid record can trail the newest snapshot by the appends
    still queued.  A failed background save raises {!Durable.Io_error}
    from the next snapshot or at the end of the run; an exception from
    the run itself wins over it.

    @raise Invalid_argument if [invalid_floor_s <= 0],
    [max_consecutive_invalid <= 0], [checkpoint_every <= 0],
    [checkpoint_keep < 1], [workers <= 0], [batch <= 0], the policy fails
    {!Resilience.validate}, [resume_from] does not fit the run (see
    {!validate}), or a resume replay diverges from the checkpoint.
    @raise Durable.Io_error if a checkpoint save fails. *)

val run_sequential :
  ?seed:int ->
  ?clock:Vclock.t ->
  ?on_iteration:(History.entry -> unit) ->
  ?on_record:(History.entry -> Search_algorithm.belief option -> unit) ->
  ?obs:Obs.Recorder.t ->
  ?invalid_floor_s:float ->
  ?max_consecutive_invalid:int ->
  ?resilience:Resilience.policy ->
  ?checkpoint_path:string ->
  ?checkpoint_every:int ->
  ?checkpoint_keep:int ->
  ?resume_from:Checkpoint.t ->
  ?image_cache:Image_cache.config ->
  ?scenario:Scenario.t ->
  target:Target.t ->
  algorithm:Search_algorithm.t ->
  budget:budget ->
  unit ->
  result
(** The legacy strictly-sequential loop — one proposal, one synchronous
    evaluation, one observe per step — kept as the executable
    specification of the engine's [workers = 1] semantics: the
    conformance suite asserts [run ~workers:1] produces a byte-identical
    history, metrics snapshot and virtual trajectory.  [image_cache]
    defaults to capacity 1 (the historical "last built image" baseline).
    Only resumes checkpoints written with [workers = 1] and no in-flight
    tasks. *)

val phase_virtual_seconds : result -> (string * float) list
(** Virtual seconds charged per phase, in {!virtual_phases} order. *)

val best_relative_to : result -> default:float -> float option
(** Best value divided by a reference (e.g. the default configuration's
    performance) — Table 2's "Relative Perf." column.  [None] when there
    is no successful entry or the reference is zero or non-finite. *)
