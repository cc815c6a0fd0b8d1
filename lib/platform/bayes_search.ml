module Space = Wayfinder_configspace.Space
module Encoding = Wayfinder_configspace.Encoding
module Gp = Wayfinder_gp.Gp
module Kernel = Wayfinder_gp.Kernel
module Gram_store = Wayfinder_gp.Gram_store
module Rng = Wayfinder_tensor.Rng
module Vec = Wayfinder_tensor.Vec
module Obs = Wayfinder_obs

(* The acquisition's workspace, one slot per pool candidate: its
   encoding, written in place, and the generator state just before its
   draw. *)
type workspace = { rows : Vec.t array; snapshots : Rng.t array }

type state = {
  encoding : Encoding.t;
  store : Gram_store.t;  (* the newest [max_points] encodings and scores (higher better) *)
  mutable best : float option;  (* the best score observed, the constant liar's value *)
  mutable worst : float;
  mutable model : (Gp.t * float * float) option;
      (* Last fitted surrogate with its target standardisation (mean, std)
         — kept solely for the pure [predict] introspection hook. *)
  mutable workspace : workspace option;  (* allocated by the first acquisition *)
}

let create ?favor ?(n_init = 8) ?(pool = 200) ?(max_points = 200) ?(lengthscale = 1.5)
    ?(seed = 0) () =
  ignore seed;
  let kernel = Kernel.Squared_exponential { lengthscale; variance = 1. } in
  let state = ref None in
  let get_state space =
    match !state with
    | Some st -> st
    | None ->
      let st =
        { encoding = Encoding.create space; store = Gram_store.create kernel ~max_points;
          best = None; worst = 0.; model = None; workspace = None }
      in
      state := Some st;
      st
  in
  let pick st ctx =
    let space = ctx.Search_algorithm.space in
    let rng = ctx.Search_algorithm.rng in
    let n = Gram_store.length st.store in
    if n < n_init then Random_search.sampler ?favor space rng
    else begin
      let points = Int.min n max_points in
      let gp, mean, std, y_std =
        (* O(n³) fit — the cost Figure 7 compares against; worth a span.
           The store's upkeep (one new Gram row per new point) runs in it. *)
        Obs.Recorder.with_span ctx.Search_algorithm.obs
          ~attrs:[ Obs.Attr.int "points" points ]
          "bayes.gp_fit"
          (fun () ->
            let x, y, gram = Gram_store.window st.store in
            (* Standardise targets so the unit-variance prior is sane. *)
            let mean, std = Wayfinder_tensor.Stat.zscore_params y in
            let y_std = Array.map (fun v -> (v -. mean) /. std) y in
            (Gp.fit ~noise:1e-3 ~gram kernel x y_std, mean, std, y_std))
      in
      st.model <- Some (gp, mean, std);
      Obs.Recorder.observe ctx.Search_algorithm.obs ~quiet:true "bayes.model_points"
        (float_of_int points);
      Obs.Recorder.observe ctx.Search_algorithm.obs ~quiet:true "bayes.pool_size"
        (float_of_int pool);
      let best = Array.fold_left max neg_infinity y_std in
      (* Textbook BO: EI maximised over a random candidate pool (no
         model-free exploitation seeds — that is DeepTune's trick).  The
         first strict maximum wins; [fallback] stands if none beats -∞.
         Each candidate dies once encoded, so a minor collection during
         the pass finds no pool to promote; the winner is drawn again
         from its slot's snapshot, which gives the same configuration. *)
      Obs.Recorder.with_span ctx.Search_algorithm.obs
        ~attrs:[ Obs.Attr.int "points" points; Obs.Attr.int "candidates" pool ]
        "bayes.acquire"
        (fun () ->
          let ws =
            match st.workspace with
            | Some ws -> ws
            | None ->
              let dim = Encoding.dim st.encoding in
              let ws =
                { rows = Array.init pool (fun _ -> Vec.zeros dim);
                  snapshots = Array.init pool (fun _ -> Rng.copy rng) }
              in
              st.workspace <- Some ws;
              ws
          in
          let fallback = Random_search.sampler ?favor space rng in
          for i = 0 to pool - 1 do
            Rng.set_state ws.snapshots.(i) (Rng.state rng);
            Encoding.encode_into st.encoding (Random_search.sampler ?favor space rng) ws.rows.(i)
          done;
          let eis = Gp.expected_improvement_batch gp ~best ws.rows in
          let winner = ref (-1) and best_ei = ref neg_infinity in
          Array.iteri (fun i ei -> if ei > !best_ei then (winner := i; best_ei := ei)) eis;
          if !winner < 0 then fallback
          else Random_search.sampler ?favor space (Rng.copy ws.snapshots.(!winner)))
    end
  in
  let propose ctx = pick (get_state ctx.Search_algorithm.space) ctx in
  (* Constant-liar batching (CL-max): after each pick, pretend it came back
     at the incumbent best score, refit, and maximise EI again — the fake
     observation flattens EI around the pick so the batch spreads out
     instead of piling onto one point.  The lies are popped before the
     real outcomes arrive through [observe]. *)
  let propose_batch ctx ~k =
    let st = get_state ctx.Search_algorithm.space in
    let picks = ref [] in
    let lie = Option.value st.best ~default:0. in
    for _ = 1 to k do
      let c = pick st ctx in
      picks := c :: !picks;
      Gram_store.lie st.store (Encoding.encode st.encoding c) lie
    done;
    Gram_store.pop_lies st.store;
    List.rev !picks
  in
  let observe ctx entry =
    let st = get_state ctx.Search_algorithm.space in
    match entry.History.failure with
    | Some f when not (Failure.counts_as_crash f) ->
      (* Transient faults and timeouts say nothing about the configuration;
         feeding them to the GP as pessimistic points would poison the
         surrogate around perfectly good regions. *)
      ()
    | Some _ | None ->
      let score =
        match entry.History.value with
        | Some v -> Metric.score ctx.Search_algorithm.metric v
        | None ->
          (* Deterministic failures become a pessimistic observation: BO
             has no dedicated crash model (§2.3). *)
          st.worst -. 1.
      in
      Gram_store.observe st.store (Encoding.encode st.encoding entry.History.config) score;
      (* A tie keeps the newer score, as a max over the scores newest
         first does. *)
      st.best <- Some (match st.best with None -> score | Some b -> max score b);
      if score < st.worst || Gram_store.length st.store = 1 then st.worst <- score
  in
  (* Pure introspection: read the cached surrogate (the one the last pick
     maximised EI over), never refit, never touch [ctx.rng].  Before the
     first fit (random warm-up phase) the searcher has no stated belief. *)
  let predict ctx config =
    let st = get_state ctx.Search_algorithm.space in
    match st.model with
    | None ->
      { Search_algorithm.crash_probability = None; predicted_value = None;
        predicted_uncertainty = None; belief_source = "gp" }
    | Some (gp, mean, std) ->
      let mu, var = Gp.predict gp (Encoding.encode st.encoding config) in
      { Search_algorithm.crash_probability = None;
        predicted_value = Some ((mu *. std) +. mean);
        predicted_uncertainty = Some (sqrt (Float.max 0. var) *. std);
        belief_source = "gp" }
  in
  Search_algorithm.make ~name:"bayesian" ~propose ~propose_batch ~observe ~predict ()
