(* The tensor, layer and scoring kernels as they were before they indexed
   Mat storage directly: checked access, copies, closures and the
   textbook loops.  The kernels that replaced them must match these bit
   for bit ([Int64.bits_of_float]), so the qcheck properties in
   test_tensor, test_nn and test_deeptune compare against this module.
   [Dataset.fit_normalizer]'s per-column fold and Adam's three passes
   are here for the same reason.  The CRC-32 fold over boxed [Int32]
   values and the string-building [hash_combine] and [stage_key] are
   here too, for test_durable's, test_simos's and test_image_cache's
   properties, as are SplitMix64 on a mutable [int64] field
   (test_tensor), the ledger row as a [Json] tree (test_analytics) and
   yamlite's flow-sequence parser that re-split every level
   (test_yamlite). *)

module Mat = Wayfinder_tensor.Mat
module Vec = Wayfinder_tensor.Vec
module Rng = Wayfinder_tensor.Rng
module Stat = Wayfinder_tensor.Stat
module Dataset = Wayfinder_tensor.Dataset
module Layer = Wayfinder_nn.Layer
module Param = Wayfinder_configspace.Param
module Space = Wayfinder_configspace.Space

let bits = Int64.bits_of_float

let same_bits a b =
  a.Mat.rows = b.Mat.rows
  && a.Mat.cols = b.Mat.cols
  && Array.for_all2 (fun x y -> bits x = bits y) (Mat.to_array a) (Mat.to_array b)

let map f m = Mat.of_array m.Mat.rows m.Mat.cols (Array.map f (Mat.to_array m))

let map2 f a b = Mat.of_array a.Mat.rows a.Mat.cols (Array.map2 f (Mat.to_array a) (Mat.to_array b))

let transpose m = Mat.init m.Mat.cols m.Mat.rows (fun i j -> Mat.get m j i)

(* Bᵀ materialized, then each element a dot product over k ascending. *)
let matmul a b =
  let m = a.Mat.rows and n = b.Mat.cols and kd = a.Mat.cols in
  let c = Mat.zeros m n in
  let bt = transpose b in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0. in
      for k = 0 to kd - 1 do
        acc := !acc +. (Mat.get a i k *. Mat.get bt j k)
      done;
      Mat.set c i j !acc
    done
  done;
  c

(* Dense: [x·W + b]; backward returns (dW, db, dX). *)
let dense_forward x w b =
  let y = matmul x w in
  for i = 0 to y.Mat.rows - 1 do
    for j = 0 to y.Mat.cols - 1 do
      Mat.set y i j (Mat.get y i j +. Mat.get b 0 j)
    done
  done;
  y

let dense_backward x w dy =
  let dw = matmul (transpose x) dy in
  let db = Mat.zeros 1 dy.Mat.cols in
  for j = 0 to dy.Mat.cols - 1 do
    let acc = ref 0. in
    for i = 0 to dy.Mat.rows - 1 do
      acc := !acc +. Mat.get dy i j
    done;
    Mat.set db 0 j !acc
  done;
  (dw, db, matmul dy (transpose w))

let relu_forward x = map (fun v -> if v > 0. then v else 0.) x
let relu_backward x dy = map2 (fun xi g -> if xi > 0. then g else 0.) x dy

(* (output, mask) *)
let dropout_forward ~rate rng x =
  let keep = 1. -. rate in
  let mask = map (fun _ -> if Rng.bernoulli rng keep then 1. /. keep else 0.) x in
  (map2 ( *. ) x mask, mask)

let dropout_backward mask dy = map2 ( *. ) dy mask

let rbf_forward ~centroids ~gamma z =
  let m = centroids.Mat.rows and d = centroids.Mat.cols in
  let denom = 2. *. gamma *. gamma in
  let phi = Mat.zeros z.Mat.rows m in
  for i = 0 to z.Mat.rows - 1 do
    for k = 0 to m - 1 do
      let acc = ref 0. in
      for j = 0 to d - 1 do
        let delta = Mat.get z i j -. Mat.get centroids k j in
        acc := !acc +. (delta *. delta)
      done;
      Mat.set phi i k (exp (-. !acc /. denom))
    done
  done;
  phi

let chamfer ~points ~centroids =
  let n = points.Mat.rows and m = centroids.Mat.rows in
  let d = points.Mat.cols in
  let grad = Mat.zeros m d in
  if n = 0 || m = 0 then (0., grad)
  else begin
    let sq_dist i k =
      let acc = ref 0. in
      for j = 0 to d - 1 do
        let delta = Mat.get points i j -. Mat.get centroids k j in
        acc := !acc +. (delta *. delta)
      done;
      !acc
    in
    let loss = ref 0. in
    let scale_p = 1. /. float_of_int n in
    for i = 0 to n - 1 do
      let best = ref 0 and best_d = ref (sq_dist i 0) in
      for k = 1 to m - 1 do
        let dk = sq_dist i k in
        if dk < !best_d then begin
          best := k;
          best_d := dk
        end
      done;
      loss := !loss +. (!best_d *. scale_p);
      for j = 0 to d - 1 do
        let delta = Mat.get centroids !best j -. Mat.get points i j in
        Mat.set grad !best j (Mat.get grad !best j +. (2. *. delta *. scale_p))
      done
    done;
    let scale_c = 1. /. float_of_int m in
    for k = 0 to m - 1 do
      let best = ref 0 and best_d = ref (sq_dist 0 k) in
      for i = 1 to n - 1 do
        let di = sq_dist i k in
        if di < !best_d then begin
          best := i;
          best_d := di
        end
      done;
      loss := !loss +. (!best_d *. scale_c);
      for j = 0 to d - 1 do
        let delta = Mat.get centroids k j -. Mat.get points !best j in
        Mat.set grad k j (Mat.get grad k j +. (2. *. delta *. scale_c))
      done
    done;
    (!loss, grad)
  end

let dissimilarity x known =
  match known with
  | [] -> 1.
  | _ :: _ ->
    let nearest =
      List.fold_left (fun acc k -> Stdlib.min acc (Vec.sq_dist x k)) infinity known
    in
    1. -. (1. /. (1. +. nearest))

(* [Dataset.fit_normalizer] as it was: one column array and one
   [Stat.zscore_params] per feature, rows oldest first. *)
let fit_normalizer (all : Dataset.row array) =
  let d = Vec.dim all.(0).Dataset.features in
  let means = Vec.zeros d and stds = Vec.create d 1. in
  for j = 0 to d - 1 do
    let column = Array.map (fun r -> r.Dataset.features.(j)) all in
    let m, s = Stat.zscore_params column in
    means.(j) <- m;
    stds.(j) <- s
  done;
  let ok = List.filter (fun r -> not r.Dataset.crashed) (Array.to_list all) in
  let k = Array.length all.(0).Dataset.targets in
  let t_means = Array.make k 0. and t_stds = Array.make k 1. in
  if ok <> [] then
    for m = 0 to k - 1 do
      let mean, std =
        Stat.zscore_params (Array.of_list (List.map (fun r -> r.Dataset.targets.(m)) ok))
      in
      t_means.(m) <- mean;
      t_stds.(m) <- std
    done;
  { Dataset.means; stds; t_means; t_stds }

(* [Optimizer.adam]'s step as it was: the update, the decoupled weight
   decay and the zeroing of the gradients in three passes over every
   parameter, with checked access. *)
module Adam = struct
  type t = {
    lr : float;
    weight_decay : float;
    params : Layer.tensor array;
    m : float array array;
    v : float array array;
    mutable step_count : int;
  }

  let beta1 = 0.9
  let beta2 = 0.999
  let epsilon = 1e-8

  let create ~weight_decay ~lr params =
    let state () = Array.map (fun p -> Array.make (Mat.numel p.Layer.value) 0.) params in
    { lr; weight_decay; params; m = state (); v = state (); step_count = 0 }

  let step t =
    t.step_count <- t.step_count + 1;
    let k = float_of_int t.step_count in
    let corr1 = 1. -. (beta1 ** k) and corr2 = 1. -. (beta2 ** k) in
    Array.iteri
      (fun pi p ->
        let value = p.Layer.value.Mat.data and grad = p.Layer.grad.Mat.data in
        let mp = t.m.(pi) and vp = t.v.(pi) in
        for i = 0 to Mat.numel p.Layer.value - 1 do
          mp.(i) <- (beta1 *. mp.(i)) +. ((1. -. beta1) *. grad.{i});
          vp.(i) <- (beta2 *. vp.(i)) +. ((1. -. beta2) *. grad.{i} *. grad.{i});
          let m_hat = mp.(i) /. corr1 and v_hat = vp.(i) /. corr2 in
          value.{i} <- value.{i} -. (t.lr *. m_hat /. (sqrt v_hat +. epsilon))
        done)
      t.params;
    if t.weight_decay > 0. then
      Array.iter
        (fun p ->
          let value = p.Layer.value.Mat.data in
          for i = 0 to Mat.numel p.Layer.value - 1 do
            value.{i} <- value.{i} *. (1. -. (t.lr *. t.weight_decay))
          done)
        t.params;
    Array.iter Layer.zero_grad t.params
end

(* Seeded test values over many magnitudes, so a reordered sum rounds
   differently; with [~special:true] one in sixteen is a signed zero or a
   non-finite value, which the comparisons have to keep. *)
let value ?(special = false) rng =
  if special && Rng.int rng 16 = 0 then
    [| 0.; -0.; nan; infinity; neg_infinity |].(Rng.int rng 5)
  else Rng.uniform rng (-1.) 1. *. (10. ** float_of_int (Rng.int rng 7 - 3))

let random_mat ?special rng rows cols = Mat.init rows cols (fun _ _ -> value ?special rng)

(* CRC-32 as [Crc32.update] computed it on [Int32] values. *)
let crc32_table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref (Int32.of_int i) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32_update state s =
  let table = Lazy.force crc32_table in
  let crc = ref state in
  String.iter
    (fun ch ->
      let idx = Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code ch))) 0xFFl) in
      crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8))
    s;
  !crc

(* [Shapes.hash_combine] as it was: FNV-1a over the joined decimal text. *)
let hash_combine a b =
  Wayfinder_simos.Shapes.hash_string (string_of_int a ^ ":" ^ string_of_int b)

(* [Space.stage_key] as it was: a token, a [string_of_int] and a [^] for
   every non-runtime parameter.  Journals persist these bytes in their
   [cached] lines. *)
let stage_key_token = function
  | Param.Vbool b -> if b then "b1" else "b0"
  | Param.Vtristate i -> "t" ^ string_of_int i
  | Param.Vint n -> "i" ^ string_of_int n
  | Param.Vcat i -> "c" ^ string_of_int i

let stage_key space config =
  let buf = Buffer.create 64 in
  Array.iteri
    (fun i p ->
      if p.Param.stage <> Param.Runtime then begin
        if Buffer.length buf > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int i);
        Buffer.add_char buf ':';
        Buffer.add_string buf (stage_key_token config.(i))
      end)
    (Space.params space);
  Buffer.contents buf

(* An integer parameter's encoding and draw as [Encoding.encode] and
   [Param.sample] computed them, taking the log10 of both bounds on every
   call. *)
let encode_int ~lo ~hi ~log_scale i =
  if hi = lo then 0.5
  else if log_scale && lo >= 0 then begin
    let l v = log10 (float_of_int (max 1 v)) in
    let denom = l hi -. l lo in
    if denom <= 0. then 0.5 else (l i -. l lo) /. denom
  end
  else float_of_int (i - lo) /. float_of_int (hi - lo)

let sample_int rng ~lo ~hi ~log_scale =
  if log_scale && hi > 0 then begin
    let lo_f = float_of_int (max 1 lo) and hi_f = float_of_int (max 1 hi) in
    let log_lo = log10 lo_f and log_hi = log10 hi_f in
    let x = 10. ** Rng.uniform rng log_lo log_hi in
    max lo (min hi (int_of_float x))
  end
  else Rng.int_in rng lo hi

(* [Rng] as it was, its SplitMix64 state a mutable [int64] field boxed on
   every draw. *)
module Splitmix = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed = { state = mix64 (Int64.add (Int64.of_int seed) golden_gamma) }

  let bits64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix64 t.state

  let split t = { state = bits64 t }
  let int t bound = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) mod bound

  let float t bound =
    Int64.to_float (Int64.shift_right_logical (bits64 t) 11) /. 9007199254740992.0 *. bound

  let bool t = Int64.logand (bits64 t) 1L = 1L
end

(* A ledger iter line as a [Json] tree, the way [Ledger] rendered every
   row before it wrote them directly. *)
module Ledger_row = struct
  module A = Wayfinder_analytics
  module Json = A.Json
  module SA = Wayfinder_platform.Search_algorithm
  module Failure = Wayfinder_platform.Failure

  let opt_num = function Some v -> Json.Num v | None -> Json.Null
  let opt_str = function Some s -> Json.Str s | None -> Json.Null

  let belief_json (b : SA.belief) =
    Json.Obj
      [ ("crash_p", opt_num b.SA.crash_probability);
        ("value", opt_num b.SA.predicted_value);
        ("sigma", opt_num b.SA.predicted_uncertainty);
        ("source", Json.Str b.SA.belief_source) ]

  let row_json (r : A.Ledger.row) =
    Json.Obj
      ([ ("type", Json.Str "iter");
        ("i", Json.Num (float_of_int r.A.Ledger.index));
        ("config", Json.List (Array.to_list (Array.map (fun t -> Json.Str t) r.A.Ledger.tokens)));
        ("value", opt_num r.A.Ledger.value);
        ("failure", opt_str (Option.map Failure.to_string r.A.Ledger.failure));
        ( "failure_class",
          opt_str
            (Option.map (fun f -> Failure.klass_to_string (Failure.klass f)) r.A.Ledger.failure) );
        ("at_s", Json.Num r.A.Ledger.at_seconds);
        ("eval_s", Json.Num r.A.Ledger.eval_seconds);
        ("built", Json.Bool r.A.Ledger.built);
        ("decide_s", Json.Num r.A.Ledger.decide_seconds);
        ("belief", match r.A.Ledger.belief with Some b -> belief_json b | None -> Json.Null) ]
      @
      match r.A.Ledger.objectives with
      | None -> []
      | Some v -> [ ("obj", Json.List (Array.to_list (Array.map (fun x -> Json.Num x) v))) ])
end

(* [Yamlite]'s flow-sequence parser as it was: it copied each body with
   [String.sub] and split it again at every nesting level, quadratic in
   the depth.  Its values and its [Parse_error]s, line and message, are
   the reference for the one-pass parser. *)
module Yamlite_flow = struct
  module Yamlite = Wayfinder_yamlite.Yamlite

  let fail line message = raise (Yamlite.Parse_error { line; message })

  let split_flow_items lineno body =
    (* Split on top-level commas, respecting quotes and nested brackets. *)
    let items = ref [] and buf = Buffer.create 16 in
    let depth = ref 0 and quote = ref None in
    let flush () =
      items := Buffer.contents buf :: !items;
      Buffer.clear buf
    in
    String.iter
      (fun c ->
        match (!quote, c) with
        | Some q, _ when c = q ->
          quote := None;
          Buffer.add_char buf c
        | Some _, _ -> Buffer.add_char buf c
        | None, ('"' | '\'') ->
          quote := Some c;
          Buffer.add_char buf c
        | None, '[' ->
          incr depth;
          Buffer.add_char buf c
        | None, ']' ->
          decr depth;
          if !depth < 0 then fail lineno "unbalanced ']' in flow sequence";
          Buffer.add_char buf c
        | None, ',' when !depth = 0 -> flush ()
        | None, _ -> Buffer.add_char buf c)
      body;
    if !depth <> 0 then fail lineno "unbalanced '[' in flow sequence";
    flush ();
    List.rev_map String.trim !items |> List.filter (fun s -> s <> "")

  let rec parse_flow lineno s =
    let s = String.trim s in
    let n = String.length s in
    if n >= 2 && s.[0] = '[' && s.[n - 1] = ']' then begin
      let body = String.sub s 1 (n - 2) in
      Yamlite.List (List.map (parse_flow lineno) (split_flow_items lineno body))
    end
    else if n >= 1 && s.[0] = '[' then fail lineno "unterminated flow sequence"
    else Yamlite.scalar_of_string s
end

(* [Param]'s draws, moves, clamp and parsers as they were, each value a
   fresh block.  The shared-value versions must return equal values and
   leave the generator where these did. *)
module Param_values = struct
  let clamp kind v =
    match (kind, v) with
    | Param.Kbool, Param.Vbool _ -> v
    | Param.Ktristate, Param.Vtristate t -> Param.Vtristate (max 0 (min 2 t))
    | Param.Kint { lo; hi; _ }, Param.Vint i -> Param.Vint (max lo (min hi i))
    | Param.Kcategorical choices, Param.Vcat i ->
      let n = Array.length choices in
      if n = 0 then Param.Vcat 0 else Param.Vcat (((i mod n) + n) mod n)
    | (Param.Kbool | Param.Ktristate | Param.Kint _ | Param.Kcategorical _), _ ->
      invalid_arg "Param.clamp: value kind mismatch"

  let value_of_token s =
    if String.length s < 2 then None
    else
      let body = String.sub s 1 (String.length s - 1) in
      match (s.[0], int_of_string_opt body) with
      | 'b', Some 0 -> Some (Param.Vbool false)
      | 'b', Some 1 -> Some (Param.Vbool true)
      | 't', Some i -> Some (Param.Vtristate i)
      | 'i', Some n -> Some (Param.Vint n)
      | 'c', Some i -> Some (Param.Vcat i)
      | _ -> None

  let value_of_string kind s =
    match kind with
    | Param.Kbool -> (
      match s with
      | "1" | "true" | "y" | "yes" | "on" -> Some (Param.Vbool true)
      | "0" | "false" | "n" | "no" | "off" -> Some (Param.Vbool false)
      | _ -> None)
    | Param.Ktristate -> (
      match s with
      | "n" | "0" -> Some (Param.Vtristate 0)
      | "m" | "1" -> Some (Param.Vtristate 1)
      | "y" | "2" -> Some (Param.Vtristate 2)
      | _ -> None)
    | Param.Kint { lo; hi; _ } -> (
      match int_of_string_opt s with
      | Some i when i >= lo && i <= hi -> Some (Param.Vint i)
      | Some _ | None -> None)
    | Param.Kcategorical choices -> (
      let rec find i =
        if i >= Array.length choices then None
        else if String.equal choices.(i) s then Some (Param.Vcat i)
        else find (i + 1)
      in
      find 0)

  let sample (p : Param.t) =
    match p.Param.kind with
    | Param.Kbool -> fun rng -> Param.Vbool (Rng.bool rng)
    | Param.Ktristate -> fun rng -> Param.Vtristate (Rng.int rng 3)
    | Param.Kint { lo; hi; log_scale } when log_scale && hi > 0 ->
      let log_lo = log10 (float_of_int (max 1 lo)) and log_hi = log10 (float_of_int (max 1 hi)) in
      fun rng ->
        let x = 10. ** Rng.uniform rng log_lo log_hi in
        Param.Vint (max lo (min hi (int_of_float x)))
    | Param.Kint { lo; hi; _ } -> fun rng -> Param.Vint (Rng.int_in rng lo hi)
    | Param.Kcategorical choices ->
      let n = Array.length choices in
      fun rng -> Param.Vcat (Rng.int rng n)

  let perturb (p : Param.t) rng v =
    match (p.Param.kind, v) with
    | Param.Kbool, Param.Vbool b -> Param.Vbool (not b)
    | Param.Ktristate, Param.Vtristate t ->
      let delta = if Rng.bool rng then 1 else -1 in
      let t' = t + delta in
      Param.Vtristate (if t' < 0 then 1 else if t' > 2 then 1 else t')
    | Param.Kint { lo; hi; log_scale }, Param.Vint i ->
      if lo = hi then Param.Vint lo
      else begin
        let candidate =
          if log_scale then begin
            let factor = Rng.choice rng [| 0.1; 0.5; 2.; 10. |] in
            int_of_float (float_of_int (max 1 i) *. factor)
          end
          else begin
            let span = max 1 ((hi - lo) / 10) in
            i + Rng.int_in rng (-span) span
          end
        in
        let clamped = max lo (min hi candidate) in
        if clamped = i then Param.Vint (if i < hi then i + 1 else i - 1) else Param.Vint clamped
      end
    | Param.Kcategorical choices, Param.Vcat i ->
      let n = Array.length choices in
      if n <= 1 then Param.Vcat 0
      else begin
        let j = Rng.int rng (n - 1) in
        Param.Vcat (if j >= i then j + 1 else j)
      end
    | (Param.Kbool | Param.Ktristate | Param.Kint _ | Param.Kcategorical _), _ ->
      invalid_arg "Param.perturb: value kind mismatch"
end

(* [Monitor.Live_series] as it was, keeping every row in a doubling
   array, with [Monitor.Rules]'s evaluation over it as it was: the
   trailing window and the drift baseline sliced out of the whole
   history.  The windowed series must fire, report and fold the same. *)
module Live_series_all = struct
  module A = Wayfinder_analytics
  module Rules = Wayfinder_monitor.Rules

  let dummy_row : A.Series.row =
    { index = -1; tokens = [||]; value = None; failure = None; at_seconds = 0.;
      eval_seconds = 0.; built = false; decide_seconds = 0.; belief = None;
      objectives = None }

  type t = {
    metric : Wayfinder_platform.Metric.t;
    names : string array;
    stages : Param.stage array;
    objectives : Wayfinder_platform.Metric.t array;
    running : A.Running.t;
    mutable buf : A.Series.row array;
    mutable n : int;
  }

  let create ~metric ~names ~stages ~objectives () =
    { metric; names; stages; objectives;
      running = A.Running.create ~metric ~stages ~objectives ();
      buf = Array.make 64 dummy_row; n = 0 }

  let observe t (r : A.Series.row) =
    if t.n = Array.length t.buf then begin
      let bigger = Array.make (2 * t.n) dummy_row in
      Array.blit t.buf 0 bigger 0 t.n;
      t.buf <- bigger
    end;
    t.buf.(t.n) <- r;
    t.n <- t.n + 1;
    A.Running.observe t.running r

  let stats t = A.Running.stats t.running
  let progress t = A.Progress.of_running t.running
  let rows t = Array.sub t.buf 0 t.n

  let tail_rows t ~window =
    let k = min t.n window in
    Array.sub t.buf (t.n - k) k

  let tail_series t ~window =
    { A.Series.metric = t.metric; names = t.names; stages = t.stages;
      rows = tail_rows t ~window; objectives = t.objectives }

  type entry = {
    spec : Rules.rule;
    mutable firing : bool;
    mutable baseline : (float * float) option;
  }

  let rules rules = List.map (fun spec -> { spec; firing = false; baseline = None }) rules

  let rule_name = function
    | Rules.Crash _ -> "crash"
    | Rules.Stall _ -> "stall"
    | Rules.Starve _ -> "starve"
    | Rules.Drift _ -> "drift"

  let condition entry ?worker_busy live =
    let n = live.n in
    match entry.spec with
    | Rules.Crash { threshold; window } ->
      let rate = A.Running.crash_share (tail_rows live ~window) in
      if rate > threshold then
        Some
          (fun () ->
            Printf.sprintf "windowed crash rate %.0f%% > %.0f%% (window %d)" (100. *. rate)
              (100. *. threshold) window)
      else None
    | Rules.Stall { iterations } ->
      let stalled = n - A.Running.last_improvement live.running in
      if n > 0 && stalled >= iterations then
        Some
          (fun () ->
            Printf.sprintf "no best improvement in %d iterations (threshold %d)" stalled
              iterations)
      else None
    | Rules.Starve { fraction } -> (
      match worker_busy with
      | Some busy when busy < fraction ->
        Some
          (fun () ->
            Printf.sprintf "worker pool %.0f%% busy < %.0f%%" (100. *. busy) (100. *. fraction))
      | Some _ | None -> None)
    | Rules.Drift { window } ->
      (if entry.baseline = None && n >= window then begin
         let head = Array.sub (rows live) 0 window in
         entry.baseline <- Some (A.Running.crash_share head, A.Running.mean_success head)
       end);
      (match entry.baseline with
      | Some (donor_crash_rate, donor_mean) when n >= 2 * window -> (
        let probe =
          A.Drift.probe ~window ~donor_crash_rate ~donor_mean (tail_series live ~window)
        in
        match probe.A.Drift.verdict with
        | A.Drift.Fresh -> None
        | A.Drift.Stale reasons -> Some (fun () -> String.concat "; " reasons))
      | _ -> None)

  let evaluate state ?worker_busy live =
    List.filter_map
      (fun entry ->
        match condition entry ?worker_busy live with
        | Some message ->
          let fresh = not entry.firing in
          entry.firing <- true;
          if fresh then Some { Rules.rule = rule_name entry.spec; message = message () } else None
        | None ->
          entry.firing <- false;
          None)
      state

  let active state =
    List.filter_map (fun entry -> if entry.firing then Some (rule_name entry.spec) else None) state
end
