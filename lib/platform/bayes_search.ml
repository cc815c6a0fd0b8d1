module Space = Wayfinder_configspace.Space
module Encoding = Wayfinder_configspace.Encoding
module Mat = Wayfinder_tensor.Mat
module Gp = Wayfinder_gp.Gp
module Kernel = Wayfinder_gp.Kernel
module Obs = Wayfinder_obs

type state = {
  encoding : Encoding.t;
  mutable xs : float array list;  (* newest first *)
  mutable ys : float list;  (* scores, higher better *)
  mutable worst : float;
  mutable model : (Gp.t * float * float) option;
      (* Last fitted surrogate with its target standardisation (mean, std)
         — kept solely for the pure [predict] introspection hook. *)
}

let create ?favor ?(n_init = 8) ?(pool = 200) ?(max_points = 200) ?(lengthscale = 1.5)
    ?(seed = 0) () =
  ignore seed;
  let state = ref None in
  let get_state space =
    match !state with
    | Some st -> st
    | None ->
      let st =
        { encoding = Encoding.create space; xs = []; ys = []; worst = 0.; model = None }
      in
      state := Some st;
      st
  in
  let pick st ctx =
    let space = ctx.Search_algorithm.space in
    let rng = ctx.Search_algorithm.rng in
    let n = List.length st.ys in
    if n < n_init then Random_search.sampler ?favor space rng
    else begin
      let take k l =
        let rec go k = function x :: rest when k > 0 -> x :: go (k - 1) rest | _ -> [] in
        go k l
      in
      let xs = take max_points st.xs and ys = take max_points st.ys in
      let x = Mat.of_rows (Array.of_list xs) in
      let y = Array.of_list ys in
      let kernel = Kernel.Squared_exponential { lengthscale; variance = 1. } in
      (* Standardise targets so the unit-variance prior is sane. *)
      let mean, std = Wayfinder_tensor.Stat.zscore_params y in
      let y_std = Array.map (fun v -> (v -. mean) /. std) y in
      let gp =
        (* O(n³) fit — the cost Figure 7 compares against; worth a span. *)
        Obs.Recorder.with_span ctx.Search_algorithm.obs
          ~attrs:[ Obs.Attr.int "points" (Array.length y) ]
          "bayes.gp_fit"
          (fun () -> Gp.fit ~noise:1e-3 kernel x y_std)
      in
      st.model <- Some (gp, mean, std);
      Obs.Recorder.observe ctx.Search_algorithm.obs ~quiet:true "bayes.model_points"
        (float_of_int (Array.length y));
      Obs.Recorder.observe ctx.Search_algorithm.obs ~quiet:true "bayes.pool_size"
        (float_of_int pool);
      let best = Array.fold_left max neg_infinity y_std in
      (* Textbook BO: EI maximised over a random candidate pool (no
         model-free exploitation seeds — that is DeepTune's trick).  The
         first strict maximum wins; [fallback] stands if none beats -∞. *)
      Obs.Recorder.with_span ctx.Search_algorithm.obs
        ~attrs:[ Obs.Attr.int "points" (Array.length y); Obs.Attr.int "candidates" pool ]
        "bayes.acquire"
        (fun () ->
          let fallback = Random_search.sampler ?favor space rng in
          let candidates = Array.init pool (fun _ -> Random_search.sampler ?favor space rng) in
          let encoded = Array.map (Encoding.encode st.encoding) candidates in
          let eis = Gp.expected_improvement_batch gp ~best encoded in
          let chosen = ref fallback and best_ei = ref neg_infinity in
          Array.iteri (fun i ei -> if ei > !best_ei then (chosen := candidates.(i); best_ei := ei)) eis;
          !chosen)
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
    let lies = ref 0 in
    for _ = 1 to k do
      let c = pick st ctx in
      picks := c :: !picks;
      let lie =
        match st.ys with [] -> 0. | ys -> List.fold_left max neg_infinity ys
      in
      st.xs <- Encoding.encode st.encoding c :: st.xs;
      st.ys <- lie :: st.ys;
      incr lies
    done;
    let rec drop n l =
      if n = 0 then l else match l with _ :: rest -> drop (n - 1) rest | [] -> []
    in
    st.xs <- drop !lies st.xs;
    st.ys <- drop !lies st.ys;
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
      st.xs <- Encoding.encode st.encoding entry.History.config :: st.xs;
      st.ys <- score :: st.ys;
      if score < st.worst || List.length st.ys = 1 then st.worst <- score
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
