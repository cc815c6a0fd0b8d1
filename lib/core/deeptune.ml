module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Encoding = Wayfinder_configspace.Encoding
module Rng = Wayfinder_tensor.Rng
module Dataset = Wayfinder_tensor.Dataset
module Vec = Wayfinder_tensor.Vec
module Search_algorithm = Wayfinder_platform.Search_algorithm
module Metric = Wayfinder_platform.Metric
module History = Wayfinder_platform.History
module Failure = Wayfinder_platform.Failure
module Objective = Wayfinder_platform.Objective
module Random_search = Wayfinder_platform.Random_search
module Obs = Wayfinder_obs

type options = {
  pool_size : int;
  alpha : float;
  exploration_weight : float;
  crash_penalty : float;
  crash_gate : float option;
  warmup : int;
  train_epochs : int;
  favor : Param.stage option;
  favor_strong : float;
  favor_weak : float;
  dtm_config : Dtm.config;
}

let default_options =
  { pool_size = 96;
    alpha = 0.5;
    exploration_weight = 1.0;
    crash_penalty = 3.0;
    crash_gate = Some 0.35;
    warmup = 10;
    train_epochs = 1;
    favor = None;
    favor_strong = 0.6;
    favor_weak = 0.05;
    dtm_config = Dtm.default_config }

type objectives = { spec : Objective.spec; weights : float array }

(* Configurations compared position by position, so membership is
   [Param.config_key] equality without building the key.  The hash folds
   every position: [Hashtbl.hash] stops after a bounded prefix and
   conflates configurations that differ only past it (DESIGN §13). *)
module Seen = Hashtbl.Make (struct
  type t = Param.value array

  let equal a b =
    let n = Array.length a in
    let rec from i = i = n || (Param.value_equal a.(i) b.(i) && from (i + 1)) in
    n = Array.length b && from 0

  let hash c =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length c - 1 do
      let v =
        match Array.unsafe_get c i with
        | Param.Vbool b -> Bool.to_int b lsl 2
        | Param.Vtristate x -> (x lsl 2) lor 1
        | Param.Vint x -> (x lsl 2) lor 2
        | Param.Vcat x -> (x lsl 2) lor 3
      in
      h := (!h lxor v) * 0x01000193
    done;
    !h land max_int
end)

type t = {
  options : options;
  space : Space.t;
  encoding : Encoding.t;
  spec : Objective.spec;  (* [||]: one metric, the entry's scalar score *)
  weights : float array;  (* per regression pair, summing to 1 *)
  dtm : Dtm.t;
  dataset : Dataset.t;
  rng : Rng.t;
  mutable known : Vec.t list;  (* encoded evaluated configurations *)
  mutable best_configs : (float * Space.configuration) list;  (* top scored, descending *)
  seen : unit Seen.t;  (* evaluated configurations *)
  mutable pending_seeds : Space.configuration list;
      (* Transferred incumbents to evaluate verbatim before consulting the
         pool (they are known-good end-to-end on the donor). *)
}

let create ?(options = default_options) ?(seed = 0) ?objectives space =
  let spec, weights =
    match objectives with
    | None -> ([||], [| 1. |])
    | Some ({ spec; weights } : objectives) ->
      let k = Array.length spec in
      if k < 2 then invalid_arg "Deeptune.create: objectives need two or more metrics";
      if Array.length weights <> k then
        invalid_arg "Deeptune.create: one weight per objective expected";
      let total = Array.fold_left ( +. ) 0. weights in
      if not (total > 0.) then invalid_arg "Deeptune.create: weights must sum to a positive value";
      (spec, Array.map (fun w -> w /. total) weights)
  in
  let rng = Rng.create (seed + 7919) in
  let encoding = Encoding.create space in
  { options;
    space;
    encoding;
    spec;
    weights;
    dtm =
      Dtm.create ~config:options.dtm_config ~metrics:(Array.length weights) (Rng.split rng)
        ~in_dim:(Encoding.dim encoding);
    dataset = Dataset.create ();
    rng;
    known = [];
    best_configs = [];
    seen = Seen.create 256;
    pending_seeds = [] }

let dtm t = t.dtm
let observations t = Dataset.size t.dataset

(* ------------------------------------------------------------------ *)
(* Candidate pool                                                      *)
(* ------------------------------------------------------------------ *)

(* ① A diverse pool: fresh biased draws, plus local mutations and
   crossovers of the best known configurations (exploitation seeds). *)
let generate_pool t =
  let fresh () =
    Random_search.sampler ?favor:t.options.favor ~strong:t.options.favor_strong
      ~weak:t.options.favor_weak t.space t.rng
  in
  List.init t.options.pool_size (fun k ->
      match t.best_configs with
      | (_, best) :: rest when k land 1 = 1 ->
        let partner = match rest with (_, second) :: _ -> second | [] -> best in
        let only_stage = if t.options.favor_weak = 0. then t.options.favor else None in
        if k land 2 = 2 then Space.mutate ?only_stage t.space t.rng best ~count:2
        else Space.crossover t.space t.rng best partner
      | _ :: _ | [] -> fresh ())

(* ------------------------------------------------------------------ *)
(* Selection                                                           *)
(* ------------------------------------------------------------------ *)

let rank options ~weights ~dissimilarity (p : Dtm.prediction) =
  let mus = p.Dtm.normalized_performances in
  if Array.length weights <> Array.length mus then
    invalid_arg "Deeptune.rank: weight/metric count mismatch";
  let bonus = Scoring.score ~alpha:options.alpha ~dissimilarity ~uncertainty:p.Dtm.uncertainty () in
  let perf = ref (weights.(0) *. mus.(0)) in
  for m = 1 to Array.length mus - 1 do
    perf := !perf +. (weights.(m) *. mus.(m))
  done;
  (* Soft crash penalty: even below the hard gate, likelier-to-crash
     candidates rank lower. *)
  !perf
  +. (options.exploration_weight *. bonus)
  -. (options.crash_penalty *. p.Dtm.crash_probability)

(* ② Predict every candidate in one batched forward pass; ③ score by
   predicted performance plus the eq. 3 exploration bonus.  Scoring
   happens in the model's z-score units so the [0, 1] bonus and the crash
   penalty are commensurate with the performance term. *)
let score_pool t pool =
  (* Never re-evaluate a configuration (the platform would just repeat the
     measurement): drop already-seen candidates unless that empties the
     pool. *)
  let pool =
    match List.filter (fun c -> not (Seen.mem t.seen c)) pool with
    | [] -> pool
    | fresh -> fresh
  in
  let xs = Array.of_list (List.map (Encoding.encode t.encoding) pool) in
  (* One whole-pool forward: bitwise identical to per-candidate [predict]
     but a single large matmul per layer instead of |pool| tiny ones. *)
  let preds = Dtm.predict_batch t.dtm xs in
  let ds = Scoring.dissimilarity_batch xs t.known in
  List.mapi
    (fun i config ->
      let p = preds.(i) in
      (config, p, rank t.options ~weights:t.weights ~dissimilarity:ds.(i) p))
    pool

let rank_candidates t pool =
  let scored = score_pool t pool in
  let admissible =
    match t.options.crash_gate with
    | None -> scored
    | Some gate ->
      List.filter (fun (_, p, _) -> p.Dtm.crash_probability <= gate) scored
  in
  let pick_best candidates key =
    List.fold_left
      (fun acc item ->
        match acc with
        | None -> Some item
        | Some best -> if key item > key best then Some item else acc)
      None candidates
  in
  match pick_best admissible (fun (_, _, rank) -> rank) with
  | Some (config, _, _) -> config
  | None -> (
    (* Whole pool gated: fall back to the least-crashy candidate. *)
    match pick_best scored (fun (_, p, _) -> -.p.Dtm.crash_probability) with
    | Some (config, _, _) -> config
    | None ->
      Random_search.sampler ?favor:t.options.favor ~strong:t.options.favor_strong
        ~weak:t.options.favor_weak t.space t.rng)

(* Batched selection: the top [k] *distinct* admissible candidates of one
   scored pool — the natural ask/tell form of the ranking step, one model
   sweep for a whole batch.  Padded with fresh biased draws when gating or
   deduplication leaves fewer than [k]. *)
let rank_candidates_top t pool ~k =
  let scored = score_pool t pool in
  let admissible =
    match t.options.crash_gate with
    | None -> scored
    | Some gate ->
      List.filter (fun (_, p, _) -> p.Dtm.crash_probability <= gate) scored
  in
  (* Stable sort: equal ranks keep pool order, matching the sequential
     picker's first-max-wins rule. *)
  let sorted =
    List.sort (fun (_, _, a) (_, _, b) -> compare (b : float) a) admissible
  in
  let in_batch = Seen.create 16 in
  let rec take n = function
    | [] -> []
    | (config, _, _) :: rest ->
      if n = 0 then []
      else if Seen.mem in_batch config then take n rest
      else begin
        Seen.add in_batch config ();
        config :: take (n - 1) rest
      end
  in
  let picked = take k sorted in
  let pad =
    List.init
      (k - List.length picked)
      (fun _ ->
        Random_search.sampler ?favor:t.options.favor ~strong:t.options.favor_strong
          ~weak:t.options.favor_weak t.space t.rng)
  in
  picked @ pad

let propose t ctx =
  let obs = ctx.Search_algorithm.obs in
  match t.pending_seeds with
  | seed :: rest ->
    t.pending_seeds <- rest;
    Obs.Recorder.incr obs ~quiet:true "deeptune.transfer_seeds_proposed";
    seed
  | [] ->
  if Dataset.size t.dataset < t.options.warmup then begin
    Obs.Recorder.incr obs ~quiet:true "deeptune.warmup_proposals";
    Random_search.sampler ?favor:t.options.favor ~strong:t.options.favor_strong
      ~weak:t.options.favor_weak t.space t.rng
  end
  else begin
    let pool =
      Obs.Recorder.with_span obs "deeptune.pool" (fun () -> generate_pool t)
    in
    Obs.Recorder.observe obs ~quiet:true "deeptune.pool_size"
      (float_of_int (List.length pool));
    Obs.Recorder.with_span obs
      ~attrs:[ Obs.Attr.int "pool" (List.length pool) ]
      "deeptune.rank"
      (fun () -> rank_candidates t pool)
  end

(* ------------------------------------------------------------------ *)
(* Observation / incremental training                                  *)
(* ------------------------------------------------------------------ *)

let keep_best = 4

let observe t ctx (entry : History.entry) =
  let metric = ctx.Search_algorithm.metric in
  let x = Encoding.encode t.encoding entry.History.config in
  t.known <- x :: t.known;
  (* A copy: the key must not change under the table. *)
  Seen.replace t.seen (Array.copy entry.History.config) ();
  (* The crash head must learn *configuration-caused* failures only: a
     flaky build or a timed-out boot says nothing about the config, and
     training on it would teach the gate to fear innocent regions.  Such
     entries still count as seen (no re-proposing) but contribute no
     training row. *)
  match entry.History.failure with
  | Some f when not (Failure.counts_as_crash f) ->
    Obs.Recorder.incr ctx.Search_algorithm.obs ~quiet:true "deeptune.transient_skipped"
  | (Some _ | None) as failure -> (
    let crashed = failure <> None in
    let score =
      match entry.History.value with Some v -> Metric.score metric v | None -> 0.
    in
    (* A row's targets live in score space (higher is better): the entry's
       scalar score with one metric, its objective vector's scores with
       several (zeros for a crash).  A success without a vector teaches
       nothing. *)
    let targets =
      match (t.spec, entry.History.objectives) with
      | [||], _ -> Some [| score |]
      | spec, _ when crashed -> Some (Array.make (Array.length spec) 0.)
      | spec, Some vec when Array.length vec = Array.length spec ->
        Some (Objective.scores spec vec)
      | _, (Some _ | None) -> None
    in
    match targets with
    | None -> ()
    | Some targets ->
      Dataset.add_targets t.dataset x ~targets ~crashed;
      if not crashed then begin
        t.best_configs <-
          (score, entry.History.config) :: t.best_configs
          |> List.sort (fun (a, _) (b, _) -> compare b a)
          |> List.filteri (fun i _ -> i < keep_best)
      end;
      (* ⑤ Incremental update: a couple of passes over the history keeps
         the per-iteration cost linear (Figure 7's O(n)). *)
      if Dataset.size t.dataset >= 4 then begin
        let obs = ctx.Search_algorithm.obs in
        let report_epoch _epoch (l : Dtm.losses) =
          Obs.Recorder.observe obs ~quiet:true "deeptune.loss.cce" l.Dtm.cce;
          Obs.Recorder.observe obs ~quiet:true "deeptune.loss.reg" l.Dtm.reg;
          Obs.Recorder.observe obs ~quiet:true "deeptune.loss.chamfer" l.Dtm.chamfer
        in
        Obs.Recorder.with_span obs
          ~attrs:[ Obs.Attr.int "dataset" (Dataset.size t.dataset) ]
          "deeptune.train"
          (fun () ->
            ignore
              (Dtm.train t.dtm ~epochs:t.options.train_epochs ~on_epoch:report_epoch
                 t.dataset))
      end)

(* Native ask/tell batch: drain transfer seeds and warm-up draws one at a
   time (they are inherently sequential), then fill the rest of the batch
   with the top-k of a single generated-and-scored pool. *)
let propose_batch t ctx ~k =
  let obs = ctx.Search_algorithm.obs in
  let rec head n acc =
    if n = 0 then List.rev acc
    else
      match t.pending_seeds with
      | seed :: rest ->
        t.pending_seeds <- rest;
        Obs.Recorder.incr obs ~quiet:true "deeptune.transfer_seeds_proposed";
        head (n - 1) (seed :: acc)
      | [] ->
        if Dataset.size t.dataset < t.options.warmup then begin
          Obs.Recorder.incr obs ~quiet:true "deeptune.warmup_proposals";
          let draw =
            Random_search.sampler ?favor:t.options.favor ~strong:t.options.favor_strong
              ~weak:t.options.favor_weak t.space t.rng
          in
          head (n - 1) (draw :: acc)
        end
        else begin
          let pool =
            Obs.Recorder.with_span obs "deeptune.pool" (fun () -> generate_pool t)
          in
          Obs.Recorder.observe obs ~quiet:true "deeptune.pool_size"
            (float_of_int (List.length pool));
          List.rev_append acc
            (Obs.Recorder.with_span obs
               ~attrs:[ Obs.Attr.int "pool" (List.length pool); Obs.Attr.int "k" n ]
               "deeptune.rank"
               (fun () -> rank_candidates_top t pool ~k:n))
        end
  in
  head k []

let algorithm t =
  Search_algorithm.make ~name:"deeptune"
    ~propose:(fun ctx -> propose t ctx)
    ~propose_batch:(fun ctx ~k -> propose_batch t ctx ~k)
    ~observe:(fun ctx entry -> observe t ctx entry)
    ~predict:(fun _ctx config ->
      (* Pure introspection: a DTM forward pass touches no searcher state
         and draws no randomness (dropout is training-only). *)
      let p = Dtm.predict t.dtm (Encoding.encode t.encoding config) in
      { Search_algorithm.crash_probability = Some p.Dtm.crash_probability;
        (* One metric: ŷ is the metric itself.  Several: no single
           predicted metric value exists. *)
        predicted_value = (if t.spec = [||] then Some p.Dtm.performances.(0) else None);
        predicted_uncertainty = Some p.Dtm.uncertainty;
        belief_source = "deeptune" })
    ()

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let parameter_impacts t =
  let sensitivity = Dtm.feature_sensitivity t.dtm t.dataset in
  Encoding.param_importance t.encoding sensitivity

(* ------------------------------------------------------------------ *)
(* Transfer learning                                                   *)
(* ------------------------------------------------------------------ *)

type transfer = { model : Dtm.snapshot; incumbents : Space.configuration list }

let export t =
  { model = Dtm.export t.dtm; incumbents = List.map snd t.best_configs }

let create_from ?options ?seed space transfer =
  (* A pre-trained model needs no random warm-up: its very first proposals
     already exploit the donor's knowledge (§4.2: the first configuration
     found with TL is markedly better).  The donor's incumbent
    configurations seed the candidate pool — they are what the transferred
    model's exploitation knowledge points at. *)
  let options = Option.value ~default:default_options options in
  let t = create ~options:{ options with warmup = 0 } ?seed space in
  Dtm.import t.dtm transfer.model;
  let seeds =
    List.filter (fun c -> Array.length c = Space.size space) transfer.incumbents
  in
  (* The donor's incumbents are evaluated first, verbatim: on a related
     application they are the "markedly better first configuration" of
     §4.2, and they carry no crash risk the donor has not already paid. *)
  t.pending_seeds <- seeds;
  t

let seed_incumbents t configs =
  let seeds = List.filter (fun c -> Array.length c = Space.size t.space) configs in
  t.pending_seeds <- t.pending_seeds @ seeds
