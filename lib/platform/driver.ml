module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Vclock = Wayfinder_simos.Vclock
module Rng = Wayfinder_tensor.Rng
module Stat = Wayfinder_tensor.Stat
module Obs = Wayfinder_obs

type budget = Iterations of int | Virtual_seconds of float

type stop_reason = Budget_exhausted | Invalid_cap | Space_exhausted

type result = {
  history : History.t;
  best : History.entry option;
  clock : Vclock.t;
  iterations : int;
  stop_reason : stop_reason;
  pareto : Pareto.t;
  metrics : Obs.Metrics.snapshot;
}

(* Virtual phases the driver charges time under; Report and the benches
   read these histogram names back. *)
let virtual_phases =
  [ ("build", "driver.build"); ("boot", "driver.boot"); ("run", "driver.run");
    ("invalid", "driver.invalid"); ("retry", "driver.retry");
    ("quarantined", "driver.quarantined"); ("negative-cache", "driver.negative_cache");
    ("replay", "driver.replay") ]

let default_invalid_floor_s = 1.
let default_max_consecutive_invalid = 1000
let default_checkpoint_every = 10

(* Distinct evaluation calls within one iteration (retries, corroborating
   measurements) get distinct trial numbers, spread far from the iteration
   indices so a retry never collides with another iteration's noise or
   fault draw.  Call 0 uses the bare iteration index, so runs without
   resilience machinery see exactly the historical trial numbering. *)
let trial_stride = 1_000_003

let diverged_msg index =
  Printf.sprintf
    "Driver.run: resume replay diverged at iteration %d (different algorithm, seed or options \
     than the checkpointed run?)"
    index

(* A resume replays every proposal the checkpoint launched (completed and
   in flight), so an [Iterations] budget below that count can neither stop
   short of the replay nor make progress past it. *)
let check_resume_budget budget (ck : Checkpoint.t) =
  let launched = ck.Checkpoint.iterations + List.length ck.Checkpoint.inflight in
  match budget with
  | Iterations n when n < launched ->
    invalid_arg
      (Printf.sprintf
         "Driver.run: iteration budget %d is below the %d iterations the checkpoint already \
          launched"
         n launched)
  | Iterations _ | Virtual_seconds _ -> ()

(* Checkpoint saves.  Returns the periodic save and the guard [run] runs
   its search loop under.  A run writes its journal whole once, at its
   first save, and then only appends: a later save takes the entries
   completed since the previous one from the head of [history] and adds
   one state record, O(new rows + state) on the driver's thread.  A
   background publisher writes and fsyncs the bytes in order, so the
   search never waits on the disk.  The guard drains the publisher at
   every exit.  After a normal exit it then writes the final save, when
   [final ()] asks for one, and waits for it, so the final save lands
   after every periodic one.  After an exception the pending saves are
   written and the exception is re-raised, whatever the drain reports. *)
let checkpoints ?backend ~obs ~path ~keep ~history ~snapshot ~final () =
  match path with
  | None -> (ignore, fun loop -> loop ())
  | Some path ->
    let publisher = Durable.Publisher.create ?backend () in
    let journal = ref None in
    let save () =
      (match !journal with
      | None ->
        (* Every run's first save replaces the file, so a resumed run
           drops the killed run's torn tail ([keep > 1] keeps that
           journal as [path.1]). *)
        let payload, j = Checkpoint.start (snapshot (Array.to_list (History.entries history))) in
        journal := Some j;
        Durable.Publisher.submit publisher ~keep ~path (fun () -> payload)
      | Some j ->
        let fresh =
          History.latest history (History.size history - Checkpoint.journal_entries j)
        in
        let payload, j = Checkpoint.extend j (snapshot fresh) in
        journal := Some j;
        Durable.Publisher.append publisher ~path payload);
      Obs.Recorder.incr obs ~quiet:true "driver.checkpoints"
    in
    let guard loop =
      (match loop () with
      | () -> ()
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        (try Durable.Publisher.drain publisher with _ -> ());
        Printexc.raise_with_backtrace e bt);
      Durable.Publisher.drain publisher;
      if final () then begin
        save ();
        Durable.Publisher.drain publisher
      end
    in
    (save, guard)

(* Per-phase virtual timeouts: a phase whose duration exceeds its cap is
   charged at the cap, later phases never ran, and the outcome is the
   corresponding timeout failure — a hung boot costs [boot_timeout_s],
   not an unbounded clock advance. *)
let apply_timeouts (resilience : Resilience.policy) (r : Target.eval_result) =
  let over cap_opt dur =
    match cap_opt with Some c when dur > c -> Some c | Some _ | None -> None
  in
  match over resilience.Resilience.build_timeout_s r.Target.build_s with
  | Some cap ->
    { Target.value = Error Failure.Build_timeout;
      build_s = cap;
      boot_s = 0.;
      run_s = 0.;
      objectives = [||] }
  | None -> (
    match over resilience.Resilience.boot_timeout_s r.Target.boot_s with
    | Some cap ->
      { r with Target.value = Error Failure.Boot_timeout; boot_s = cap; run_s = 0.; objectives = [||] }
    | None -> (
      match over resilience.Resilience.run_timeout_s r.Target.run_s with
      | Some cap -> { r with Target.value = Error Failure.Run_timeout; run_s = cap; objectives = [||] }
      | None -> r))

(* The explicit NaN policy: a target reporting [Ok v] with a non-finite
   [v] is a deterministic failure of the configuration, never a value —
   NaN must not reach the corroboration median, the history or the
   search algorithms (polymorphic float comparisons are not total with
   NaN). *)
let reject_non_finite (r : Target.eval_result) =
  match r.Target.value with
  | Ok v when not (Float.is_finite v) ->
    { r with Target.value = Error Failure.Non_finite_measurement; objectives = [||] }
  | Ok _ | Error _ -> r

(* ------------------------------------------------------------------ *)
(* The multi-worker discrete-event engine                              *)
(* ------------------------------------------------------------------ *)

(* Every check [run] makes before it touches anything, so a caller can
   refuse a run before opening its outputs. *)
let validate ?clock ?(invalid_floor_s = default_invalid_floor_s)
    ?(max_consecutive_invalid = default_max_consecutive_invalid) ?(resilience = Resilience.none)
    ?(checkpoint_every = default_checkpoint_every) ?(checkpoint_keep = 1) ?resume_from
    ?(workers = 1) ?batch ?image_cache ?scenario ~budget () =
  if invalid_floor_s <= 0. then invalid_arg "Driver.run: invalid_floor_s must be positive";
  if max_consecutive_invalid <= 0 then
    invalid_arg "Driver.run: max_consecutive_invalid must be positive";
  if checkpoint_every <= 0 then invalid_arg "Driver.run: checkpoint_every must be positive";
  if checkpoint_keep < 1 then invalid_arg "Driver.run: checkpoint_keep must be >= 1";
  if workers <= 0 then invalid_arg "Driver.run: workers must be positive";
  if Option.value batch ~default:workers <= 0 then invalid_arg "Driver.run: batch must be positive";
  Resilience.validate resilience;
  match resume_from with
  | None -> ()
  | Some ck -> (
    check_resume_budget budget ck;
    let now = Vclock.now (Option.value clock ~default:(Vclock.create ())) in
    if now <> ck.Checkpoint.budget_start_seconds then
      invalid_arg
        "Driver.run: resume requires a clock at the checkpoint's budget origin (pass a fresh \
         clock)";
    if ck.Checkpoint.workers <> workers then
      invalid_arg "Driver.run: resume requires the same ~workers as the checkpointed run";
    let cache_config = Option.value image_cache ~default:(Image_cache.capacity workers) in
    if ck.Checkpoint.cache_capacity <> Image_cache.cap (Image_cache.create cache_config) then
      invalid_arg "Driver.run: resume requires the same image-cache capacity as the checkpoint";
    match (scenario, ck.Checkpoint.trace_cursor) with
    | Some _, Some _ | None, None -> ()
    | Some _, None ->
      invalid_arg "Driver.run: checkpoint was written without a scenario; resume without one"
    | None, Some _ ->
      invalid_arg "Driver.run: checkpoint was written with a scenario; resume with the same one")

(* [workers] virtual evaluation slots share one virtual clock.  A launch
   eagerly computes a task's whole outcome — evaluation is a pure
   function of (trial, configuration), so retries, timeouts,
   corroboration and the per-slot rebuild skip can all be decided at
   launch time — and schedules its completion on the clock's min-heap as
   the exact chain of charges a synchronous evaluation would have applied.
   The main loop pops the earliest completion, records its entry, and
   refills free slots with fresh proposals (batched through
   [propose_batch] when [batch > 1]).

   With [workers = 1] the slot launches and completes with the clock
   untouched in between: one proposal, one evaluation and one observe per
   step.  The driver goldens ([test/golden/driver_*.txt]) pin every
   entry, counter, histogram and clock reading at one worker and at four. *)
let run ?(seed = 0) ?clock ?on_iteration ?on_record ?obs
    ?(invalid_floor_s = default_invalid_floor_s)
    ?(max_consecutive_invalid = default_max_consecutive_invalid)
    ?(resilience = Resilience.none) ?checkpoint_path ?checkpoint_backend
    ?(checkpoint_every = default_checkpoint_every) ?(checkpoint_keep = 1) ?resume_from
    ?(workers = 1) ?batch
    ?image_cache ?scenario ~target ~algorithm ~budget () =
  validate ?clock ~invalid_floor_s ~max_consecutive_invalid ~resilience ~checkpoint_every
    ~checkpoint_keep ?resume_from ~workers ?batch ?image_cache ?scenario ~budget ();
  let batch = match batch with Some b -> b | None -> workers in
  let clock = match clock with Some c -> c | None -> Vclock.create () in
  let obs = match obs with Some o -> o | None -> Obs.Recorder.create () in
  Obs.Recorder.set_virtual_now obs (fun () -> Vclock.now clock);
  Vclock.on_advance clock (fun dt -> Obs.Recorder.incr obs ~by:dt ~quiet:true "driver.virtual_s");
  let space = target.Target.space in
  let history = History.create target.Target.metric in
  (* The Pareto archive accumulates the non-dominated front of every
     successful objective vector.  Scalar targets report no vectors, so
     the archive stays empty and the scalar path is untouched.
     [Pareto.insert] is idempotent and order-independent, so replayed
     completions may re-insert freely. *)
  let archive = ref (Pareto.create ~spec:target.Target.objective_spec) in
  let record_pareto (e : History.entry) =
    match e.History.objectives with
    | Some v when e.History.failure = None ->
      archive := Pareto.insert !archive ~index:e.History.index ~objectives:v
    | Some _ | None -> ()
  in
  let rng = Rng.create seed in
  let ctx =
    { Search_algorithm.space; metric = target.Target.metric; history; rng; obs }
  in
  let multi = workers > 1 in
  (* The image cache is shared by every slot: a slot skips the build task
     when *any* slot already built (or proved unbuildable) the image for
     that non-runtime projection.  The default capacity equals the worker
     count — the same image budget the old per-slot baselines had, but
     pooled; with [workers = 1] that is a single-entry LRU, the historical
     "last built image" baseline. *)
  let cache_config =
    match image_cache with Some c -> c | None -> Image_cache.capacity workers
  in
  let cache = Image_cache.create cache_config in
  let free_slots = ref (List.init workers Fun.id) in
  let take_slot () =
    match !free_slots with
    | [] -> assert false
    | s :: rest ->
      free_slots := rest;
      s
  in
  let release_slot s =
    let rec ins = function
      | [] -> [ s ]
      | x :: rest when x < s -> x :: ins rest
      | l -> s :: l
    in
    free_slots := ins !free_slots
  in
  let proposal_seq = ref 0 in
  let completed = ref 0 in
  let consecutive_invalid = ref 0 in
  let stop = ref None in
  let exhausted = ref false in
  let note_exhausted () =
    exhausted := true;
    if !stop = None then stop := Some Space_exhausted
  in
  let strikes : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let quarantine : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  (* A key is built only while something is quarantined: most runs never
     quarantine anything. *)
  let quarantined config =
    Hashtbl.length quarantine > 0 && Hashtbl.mem quarantine (Param.config_key config)
  in
  (* Launched-but-not-completed tasks, keyed by proposal index — what a
     checkpoint persists as in-flight slot state. *)
  let inflight_tbl : (int, Checkpoint.inflight) Hashtbl.t = Hashtbl.create 16 in
  let start_seconds =
    match resume_from with
    | Some ck -> ck.Checkpoint.budget_start_seconds
    | None -> Vclock.now clock
  in
  (* ---------------- Resume bookkeeping ---------------- *)
  (* The engine resumes by re-running its own deterministic timeline:
     recorded entries are re-proposed (rebuilding algorithm + RNG state),
     verified, and scheduled to complete at their recorded times; tasks
     that were in flight when the checkpoint was written are re-launched
     with their persisted outcome; everything after that runs live.  The
     evaluated phases of replayed work were charged before the kill, so
     on completion they are booked under [driver.replay] — keeping the
     phase-sum invariant — instead of re-emitting build/boot/run. *)
  let replay_entries : (int, History.entry) Hashtbl.t = Hashtbl.create 64 in
  let replay_inflight : (int, Checkpoint.inflight) Hashtbl.t = Hashtbl.create 16 in
  let total_replayed =
    match resume_from with
    | None -> 0
    | Some ck -> ck.Checkpoint.iterations + List.length ck.Checkpoint.inflight
  in
  let rng_checked = ref (resume_from = None) in
  (match resume_from with
  | None -> ()
  | Some ck ->
    consecutive_invalid := ck.Checkpoint.consecutive_invalid;
    (* Cache mutations happen at launch time and replayed launches skip
       them, so the persisted state — contents and recency — is restored
       verbatim (least recently used inserted first). *)
    List.iter
      (fun (k, e) -> ignore (Image_cache.add cache k e))
      (List.rev ck.Checkpoint.cache);
    List.iter (fun (k, n) -> Hashtbl.replace strikes k n) ck.Checkpoint.strikes;
    archive := Pareto.of_list ~spec:target.Target.objective_spec ck.Checkpoint.pareto;
    (match (scenario, ck.Checkpoint.trace_cursor) with
    | Some sc, Some c -> Scenario.set_cursor sc c
    | (Some _ | None), _ -> ());
    List.iter
      (fun (e : History.entry) -> Hashtbl.replace replay_entries e.History.index e)
      ck.Checkpoint.entries;
    List.iter
      (fun (r : Checkpoint.inflight) -> Hashtbl.replace replay_inflight r.Checkpoint.index r)
      ck.Checkpoint.inflight;
    Obs.Recorder.incr obs ~quiet:true
      ~by:(float_of_int ck.Checkpoint.iterations)
      "driver.replayed_iterations");
  let check_rng () =
    if (not !rng_checked) && !proposal_seq >= total_replayed then begin
      rng_checked := true;
      match resume_from with
      | Some ck when Rng.state rng <> ck.Checkpoint.rng_state ->
        invalid_arg
          "Driver.run: resume replay left the RNG in a different state than the checkpoint"
      | Some _ | None -> ()
    end
  in
  let snapshot entries =
    (* Ordering is defined by the canonical key, not polymorphic compare:
       the checkpoint bytes for a given quarantine state are unique. *)
    let sorted_strikes =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k n acc -> (k, n) :: acc) strikes [])
    in
    let sorted_quarantined =
      List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) quarantine [])
    in
    let inflight =
      List.sort
        (fun (a : Checkpoint.inflight) b -> compare a.Checkpoint.index b.Checkpoint.index)
        (Hashtbl.fold (fun _ r acc -> r :: acc) inflight_tbl [])
    in
    { Checkpoint.seed;
      rng_state = Rng.state rng;
      clock_seconds = Vclock.now clock;
      budget_start_seconds = start_seconds;
      iterations = !completed;
      workers;
      consecutive_invalid = !consecutive_invalid;
      cache_capacity = Image_cache.cap cache;
      cache = Image_cache.to_alist cache;
      strikes = sorted_strikes;
      quarantined = sorted_quarantined;
      entries;
      inflight;
      pareto = Pareto.to_list !archive;
      trace_cursor = Option.map Scenario.cursor scenario }
  in
  let write_checkpoint, checkpointed =
    checkpoints ?backend:checkpoint_backend ~obs ~path:checkpoint_path ~keep:checkpoint_keep
      ~history ~snapshot
      ~final:(fun () -> !completed mod checkpoint_every <> 0)
      ()
  in
  let within_budget () =
    match budget with
    | Iterations n -> !proposal_seq < n
    | Virtual_seconds s -> Vclock.now clock -. start_seconds < s
  in
  (* ---------------- Completion side ---------------- *)
  let complete_task slot ~iteration_span ~belief ~replayed_phases (entry : History.entry) =
    if replayed_phases then
      Obs.Recorder.emit_span obs ~virtual_s:entry.History.eval_seconds
        ~attrs:[ Obs.Attr.int "iteration" entry.History.index ]
        "driver.replay";
    (* Model update runs before the entry is archived so its cost can be
       folded into the recorded per-iteration decision time. *)
    let (), observe_seconds =
      Obs.Recorder.timed obs "driver.observe" (fun () ->
          algorithm.Search_algorithm.observe ctx entry)
    in
    let entry =
      { entry with History.decide_seconds = entry.History.decide_seconds +. observe_seconds }
    in
    History.add history entry;
    record_pareto entry;
    Obs.Recorder.incr obs "driver.iterations";
    Obs.Recorder.observe obs ~quiet:true "driver.decide_s" entry.History.decide_seconds;
    Obs.Recorder.observe obs ~quiet:true "driver.eval_s" entry.History.eval_seconds;
    (match iteration_span with
    | Some span ->
      Obs.Recorder.span_end obs
        ~attrs:
          [ Obs.Attr.bool "built" entry.History.built;
            Obs.Attr.string "status"
              (match entry.History.failure with
              | Some f -> Failure.to_string f
              | None -> "ok") ]
        span
    | None -> ());
    if multi then begin
      Obs.Recorder.emit_span obs ~virtual_s:entry.History.eval_seconds
        ~attrs:
          [ Obs.Attr.int "slot" slot; Obs.Attr.int "iteration" entry.History.index ]
        "driver.worker";
      Obs.Recorder.observe obs ~quiet:true "driver.worker.busy"
        (float_of_int (workers - List.length !free_slots))
    end;
    Hashtbl.remove inflight_tbl entry.History.index;
    release_slot slot;
    incr completed;
    (match on_record with Some f -> f entry belief | None -> ());
    (match on_iteration with Some f -> f entry | None -> ());
    (* Keep attached trace sinks current with the ledger: a live consumer
       (watch --follow, metrics export) sees every completed iteration. *)
    Obs.Recorder.flush obs;
    if !completed mod checkpoint_every = 0 then write_checkpoint ()
  in
  (* A replayed completion: the entry is already final (observe cost
     included), so it is fed to the algorithm and archived without
     re-announcing or re-checkpointing. *)
  let complete_replayed slot (e : History.entry) =
    Obs.Recorder.emit_span obs ~virtual_s:e.History.eval_seconds
      ~attrs:[ Obs.Attr.int "iteration" e.History.index ]
      "driver.replay";
    algorithm.Search_algorithm.observe ctx e;
    History.add history e;
    record_pareto e;
    release_slot slot;
    incr completed
  in
  (* ---------------- Launch side ---------------- *)
  let schedule_outcome slot ~iteration_span ~belief ~deltas ~entry_of_at =
    (* The completion time is the left fold of the charges from the
       current reading — the chain of float additions a synchronous
       evaluation performs. *)
    let at = List.fold_left ( +. ) (Vclock.now clock) deltas in
    let entry : History.entry = entry_of_at at in
    Hashtbl.replace inflight_tbl entry.History.index
      { Checkpoint.index = entry.History.index; slot;
        start_seconds = Vclock.now clock; entry };
    ignore
      (Vclock.schedule_chain clock ~deltas (fun () ->
           complete_task slot ~iteration_span ~belief ~replayed_phases:false entry))
  in
  let launch_live ~iteration_span ~belief slot idx config decide_seconds =
    let eval_calls = ref 0 in
    let call_target config =
      let trial = idx + (trial_stride * !eval_calls) in
      incr eval_calls;
      target.Target.evaluate ~trial config
    in
    let violations =
      Obs.Recorder.with_span obs "driver.validate" (fun () -> Space.validate space config)
    in
    match violations with
    | _ :: _ ->
      incr consecutive_invalid;
      Obs.Recorder.emit_span obs ~virtual_s:invalid_floor_s
        ~attrs:[ Obs.Attr.int "consecutive" !consecutive_invalid ]
        "driver.invalid";
      Obs.Recorder.incr obs "driver.invalid_proposals";
      schedule_outcome slot ~iteration_span ~belief ~deltas:[ invalid_floor_s ]
        ~entry_of_at:(fun at ->
          { History.index = idx; config; value = None;
            failure = Some Failure.Invalid_configuration; at_seconds = at;
            eval_seconds = invalid_floor_s; built = false; decide_seconds; objectives = None })
    | [] ->
      consecutive_invalid := 0;
      if quarantined config then begin
        Obs.Recorder.emit_span obs ~virtual_s:invalid_floor_s "driver.quarantined";
        Obs.Recorder.incr obs "driver.quarantined_proposals";
        schedule_outcome slot ~iteration_span ~belief ~deltas:[ invalid_floor_s ]
          ~entry_of_at:(fun at ->
            { History.index = idx; config; value = None;
              failure = Some Failure.Quarantined; at_seconds = at;
              eval_seconds = invalid_floor_s; built = false; decide_seconds; objectives = None })
      end
      else begin
        let image_key = Space.stage_key space config in
        match Image_cache.peek cache image_key with
        | Some { Image_cache.status = Image_cache.Build_failed f; _ } ->
          (* Negative hit: the image for this non-runtime projection is
             known not to build.  Serve the cached failure at a floor
             charge instead of re-running a doomed build. *)
          Image_cache.touch cache image_key;
          Obs.Recorder.emit_span obs ~virtual_s:invalid_floor_s
            ~attrs:[ Obs.Attr.bool "cache_hit" true ]
            "driver.negative_cache";
          Obs.Recorder.incr obs "driver.image_cache.negative_hits";
          schedule_outcome slot ~iteration_span ~belief ~deltas:[ invalid_floor_s ]
            ~entry_of_at:(fun at ->
              { History.index = idx; config; value = None;
                failure = Some f; at_seconds = at;
                eval_seconds = invalid_floor_s; built = false; decide_seconds; objectives = None })
        | Some { Image_cache.status = Image_cache.Built; _ } | None ->
        (* Eager evaluation: the outcome is a pure function of (trial,
           config) and the shared image cache at launch time, so the full
           attempt / corroborate / retry cascade runs now, accumulating
           the charges it would have applied to a synchronous clock. *)
        (match scenario with Some sc -> Scenario.advance sc | None -> ());
        let last_objectives = ref [||] in
        let deltas_rev = ref [] in
        let charge d = deltas_rev := d :: !deltas_rev in
        let total_charged = ref 0. in
        let entry_built = ref false in
        let perform_attempt ~remeasure =
          let r =
            Obs.Recorder.with_span obs "driver.evaluate" (fun () -> call_target config)
          in
          let r = apply_timeouts resilience r in
          let r = reject_non_finite r in
          (match r.Target.value with
          | Ok _ when not remeasure -> last_objectives := r.Target.objectives
          | Ok _ | Error _ -> ());
          let cache_hit =
            if remeasure then false
            else
              match Image_cache.find cache image_key with
              | Some { Image_cache.status = Image_cache.Built; origin } ->
                Obs.Recorder.incr obs "driver.image_cache.hits";
                if origin <> slot then
                  Obs.Recorder.incr obs "driver.image_cache.cross_slot_hits";
                true
              | Some { Image_cache.status = Image_cache.Build_failed _; _ } | None ->
                Obs.Recorder.incr obs "driver.image_cache.misses";
                false
          in
          let needs_build = (not remeasure) && not cache_hit in
          let build_charged = if needs_build then r.Target.build_s else 0. in
          let charged = build_charged +. r.Target.boot_s +. r.Target.run_s in
          charge charged;
          total_charged := !total_charged +. charged;
          if remeasure then Obs.Recorder.incr obs "driver.remeasurements"
          else begin
            if needs_build then begin
              entry_built := true;
              Obs.Recorder.incr obs "driver.builds_charged"
            end
            else Obs.Recorder.incr obs "driver.rebuild_skips";
            Obs.Recorder.emit_span obs ~virtual_s:build_charged
              ~attrs:
                [ Obs.Attr.bool "rebuild_skipped" (not needs_build);
                  Obs.Attr.bool "cache_hit" cache_hit ]
              "driver.build"
          end;
          let attrs = if remeasure then [ Obs.Attr.bool "remeasure" true ] else [] in
          Obs.Recorder.emit_span obs ~virtual_s:r.Target.boot_s ~attrs "driver.boot";
          Obs.Recorder.emit_span obs ~virtual_s:r.Target.run_s ~attrs "driver.run";
          (* Retry semantics (pinned by the driver goldens): a
             build-stage failure leaves no image, so the cache is NOT
             updated — a retried transient build failure misses again and
             legitimately re-charges the build.  Anything that built
             (even if it later crashed or timed out post-build) caches
             Built, so a retry skips the rebuild and build_s is charged
             exactly once.  Deterministic build failures are
             negative-cached instead. *)
          (match r.Target.value with
          | Error f when Failure.is_build_stage f ->
            if needs_build && Failure.klass f = Failure.Deterministic then begin
              match
                Image_cache.add cache image_key
                  { Image_cache.status = Image_cache.Build_failed f; origin = slot }
              with
              | Some _ -> Obs.Recorder.incr obs "driver.image_cache.evictions"
              | None -> ()
            end
          | Error _ | Ok _ ->
            if needs_build then begin
              match
                Image_cache.add cache image_key
                  { Image_cache.status = Image_cache.Built; origin = slot }
              with
              | Some _ -> Obs.Recorder.incr obs "driver.image_cache.evictions"
              | None -> ()
            end);
          r.Target.value
        in
        let corroborate v1 =
          if resilience.Resilience.measure_repeats < 2 then v1
          else begin
            let samples = ref [ v1 ] in
            let calls = ref 1 in
            let need_more () =
              !calls < resilience.Resilience.measure_repeats
              &&
              let s = Array.of_list !samples in
              Array.length s < 2
              || Resilience.disagreement s > resilience.Resilience.outlier_threshold
            in
            while need_more () do
              incr calls;
              match perform_attempt ~remeasure:true with
              | Ok v -> samples := v :: !samples
              | Error _ -> Obs.Recorder.incr obs "driver.remeasure_failures"
            done;
            let s = Array.of_list (List.rev !samples) in
            if Array.length s < 2 then v1
            else if
              Array.length s = 2
              && Resilience.disagreement s <= resilience.Resilience.outlier_threshold
            then v1
            else begin
              Obs.Recorder.incr obs "driver.outlier_rejections";
              Obs.Recorder.observe obs ~quiet:true "driver.sample_mad" (Stat.mad s);
              Stat.median s
            end
          end
        in
        let rec attempt k =
          match perform_attempt ~remeasure:false with
          | Ok v -> Ok (corroborate v)
          | Error f when Failure.retryable f && k < resilience.Resilience.retries ->
            let backoff = Resilience.backoff_s resilience ~attempt:k in
            charge backoff;
            total_charged := !total_charged +. backoff;
            Obs.Recorder.emit_span obs ~virtual_s:backoff
              ~attrs:
                [ Obs.Attr.int "attempt" (k + 1);
                  Obs.Attr.string "kind" (Failure.to_string f) ]
              "driver.retry";
            Obs.Recorder.incr obs "driver.retries";
            attempt (k + 1)
          | Error f ->
            if Failure.retryable f && resilience.Resilience.quarantine_after > 0 then begin
              let key = Param.config_key config in
              let n = (try Hashtbl.find strikes key with Not_found -> 0) + 1 in
              Hashtbl.replace strikes key n;
              if n >= resilience.Resilience.quarantine_after then begin
                Hashtbl.replace quarantine key ();
                Obs.Recorder.incr obs "driver.quarantines"
              end
            end;
            Error f
        in
        let final = attempt 0 in
        (match final with
        | Ok _ -> ()
        | Error f ->
          Obs.Recorder.incr obs (Printf.sprintf "driver.failures.%s" (Failure.to_string f)));
        schedule_outcome slot ~iteration_span ~belief ~deltas:(List.rev !deltas_rev)
          ~entry_of_at:(fun at ->
            { History.index = idx;
              config;
              value = (match final with Ok v -> Some v | Error _ -> None);
              failure = (match final with Ok _ -> None | Error f -> Some f);
              at_seconds = at;
              eval_seconds = !total_charged;
              built = !entry_built;
              decide_seconds;
              objectives =
                (match final with
                | Ok _ when Array.length !last_objectives > 0 -> Some !last_objectives
                | Ok _ | Error _ -> None) })
      end
  in
  (* Pre-evaluation belief capture: [predict] is pure and only consulted
     when a consumer is attached, so recorded runs stay byte-for-byte
     identical to unrecorded ones.  A replayed in-flight launch sees the
     replayed model, so its re-recorded row keeps the original belief. *)
  let belief_of config =
    match (on_record, algorithm.Search_algorithm.predict) with
    | Some _, Some p -> Some (p ctx config)
    | (Some _ | None), _ -> None
  in
  let end_replayed =
    Option.iter (fun span -> Obs.Recorder.span_end obs ~attrs:[ Obs.Attr.bool "replay" true ] span)
  in
  let launch ~iteration_span config decide_seconds =
    let idx = !proposal_seq in
    incr proposal_seq;
    let slot = take_slot () in
    match (Hashtbl.find_opt replay_entries idx, Hashtbl.find_opt replay_inflight idx) with
    | Some e, _ ->
      if config <> e.History.config then invalid_arg (diverged_msg e.History.index);
      end_replayed iteration_span;
      ignore
        (Vclock.schedule clock ~at:e.History.at_seconds (fun () -> complete_replayed slot e))
    | None, Some r ->
      if config <> r.Checkpoint.entry.History.config then invalid_arg (diverged_msg idx);
      if slot <> r.Checkpoint.slot || Vclock.now clock <> r.Checkpoint.start_seconds then
        invalid_arg (diverged_msg idx);
      end_replayed iteration_span;
      Hashtbl.replace inflight_tbl idx r;
      let belief = belief_of config in
      ignore
        (Vclock.schedule clock ~at:r.Checkpoint.entry.History.at_seconds (fun () ->
             complete_task slot ~iteration_span:None ~belief ~replayed_phases:true
               r.Checkpoint.entry))
    | None, None ->
      launch_live ~iteration_span ~belief:(belief_of config) slot idx config decide_seconds
  in
  let request_and_launch k =
    if algorithm.Search_algorithm.propose_batch <> None && k > 1 then begin
      let batch_fn = Option.get algorithm.Search_algorithm.propose_batch in
      let configs, secs =
        Obs.Recorder.timed obs "driver.propose" (fun () ->
            try batch_fn ctx ~k with Search_algorithm.Space_exhausted -> [])
      in
      let n = List.length configs in
      (* A short batch is the algorithm's way of saying the space ran dry
         mid-ask (a final partial batch). *)
      if n < k then note_exhausted ();
      if multi then Obs.Recorder.observe obs ~quiet:true "driver.batch.size" (float_of_int n);
      let share = secs /. float_of_int (max 1 n) in
      List.iter (fun config -> launch ~iteration_span:None config share) configs
    end
    else begin
      let launched = ref 0 in
      let i = ref 0 in
      while !i < k && not !exhausted do
        let span =
          Obs.Recorder.span_begin obs
            ~attrs:[ Obs.Attr.int "iteration" !proposal_seq ]
            "driver.iteration"
        in
        let proposed, secs =
          Obs.Recorder.timed obs "driver.propose" (fun () ->
              try Some (algorithm.Search_algorithm.propose ctx)
              with Search_algorithm.Space_exhausted -> None)
        in
        (match proposed with
        | None ->
          Obs.Recorder.span_end obs
            ~attrs:[ Obs.Attr.string "status" "space_exhausted" ]
            span;
          note_exhausted ()
        | Some config ->
          incr launched;
          launch ~iteration_span:(Some span) config secs);
        incr i
      done;
      if multi then
        Obs.Recorder.observe obs ~quiet:true "driver.batch.size" (float_of_int !launched)
    end
  in
  (* ---------------- Fill & drain ---------------- *)
  let rec fill () =
    check_rng ();
    let free = List.length !free_slots in
    if free = 0 || !exhausted then ()
    else begin
      let replaying = !proposal_seq < total_replayed in
      let iter_room =
        match budget with Iterations n -> n - !proposal_seq | Virtual_seconds _ -> max_int
      in
      if replaying then begin
        (* Replayed proposals were legitimately launched by the original
           run, so they bypass the live guards (whose state variables hold
           checkpoint-final values during replay); the batching pattern —
           min(free, batch, iteration room) — is the same deterministic
           rule the original followed, so algorithm state and the RNG
           stream evolve identically. *)
        request_and_launch (min free (min batch iter_room));
        fill ()
      end
      else if !stop <> None then ()
      else if !consecutive_invalid >= max_consecutive_invalid then stop := Some Invalid_cap
      else if not (within_budget ()) then ()
      else begin
        let k = min free (min batch iter_room) in
        if k <= 0 then ()
        else begin
          request_and_launch k;
          fill ()
        end
      end
    end
  in
  checkpointed (fun () ->
      fill ();
      while Vclock.run_next clock do
        fill ()
      done;
      check_rng ());
  Obs.Recorder.flush obs;
  { history;
    best = History.best history;
    clock;
    iterations = !completed;
    stop_reason = (match !stop with Some r -> r | None -> Budget_exhausted);
    pareto = !archive;
    metrics = Obs.Recorder.snapshot obs }

let phase_virtual_seconds result =
  List.map
    (fun (label, name) -> (label, Obs.Metrics.sum result.metrics (name ^ ".virtual_s")))
    virtual_phases

let best_relative_to result ~default =
  (* A zero (or non-finite) reference yields inf/nan ratios, which is
     worse than no answer. *)
  if default = 0. || not (Float.is_finite default) then None
  else
    match History.best result.history with
    | None -> None
    | Some e -> (
      match e.History.value with
      | None -> None
      | Some v ->
        if (History.metric result.history).Metric.maximize then Some (v /. default)
        else Some (default /. v))
