module Param = Wayfinder_configspace.Param
module Metric = Wayfinder_platform.Metric
module Failure = Wayfinder_platform.Failure
module Pareto = Wayfinder_platform.Pareto
module Stat = Wayfinder_tensor.Stat

(* The one statistics fold over ledger rows.  [Series] runs it over a
   whole row array, [Monitor.Live_series] feeds it one record at a time,
   so a batch report and a live view of the same rows are the same
   arithmetic by construction.  Every update is O(1) amortised except
   the Pareto insert, which is linear in the front. *)

let default_window = 25

let is_crash (r : Ledger.row) =
  match r.failure with Some f -> Failure.counts_as_crash f | None -> false

let is_transient (r : Ledger.row) = r.failure <> None && not (is_crash r)

let improves metric best v =
  match best with None -> true | Some (_, b) -> Metric.better metric v b

(* The non-runtime projection key: positional tokens of compile- and
   boot-time parameters.  Two configurations share a key iff they differ
   only in runtime parameters — the same equivalence
   Space.stage_key/Image_cache use, recomputable from a ledger alone. *)
let stage_key stages (r : Ledger.row) =
  let buf = Buffer.create 32 in
  Array.iteri
    (fun i tok ->
      if i < Array.length stages && stages.(i) <> Param.Runtime then begin
        Buffer.add_string buf tok;
        Buffer.add_char buf ';'
      end)
    r.tokens;
  Buffer.contents buf

type t = {
  metric : Metric.t;
  stages : Param.stage array;
  mutable n : int;
  mutable best : (int * float) option;
  mutable last_improvement : int;
  mutable crashes : int;
  mutable transients : int;
  (* Slot [i mod default_window] holds row i's predicates and running
     best; a slot is retired when row [i + default_window] reuses it. *)
  crash_ring : bool array;
  transient_ring : bool array;
  bsf_ring : float array;
  mutable crash_in_window : int;
  mutable transient_in_window : int;
  mutable front : Pareto.t option;
  mutable total_eval : float;
  mutable last_at : float;
  (* Rows not yet keyed into the distinct sets.  Only [stats] reads the
     sets, so keying (the costly part of a row) waits for it or for
     [key_pending]: a scan that never asks for them does not pay for it. *)
  mutable unkeyed : Ledger.row list;
  configs : (string, unit) Hashtbl.t;
  stage_keys : (string, unit) Hashtbl.t;
}

let create ~metric ~stages ~objectives () =
  { metric; stages; n = 0; best = None; last_improvement = 0; crashes = 0;
    transients = 0; crash_ring = Array.make default_window false;
    transient_ring = Array.make default_window false;
    bsf_ring = Array.make default_window nan; crash_in_window = 0;
    transient_in_window = 0;
    front =
      (if Array.length objectives = 0 then None else Some (Pareto.create ~spec:objectives));
    total_eval = 0.; last_at = 0.; unkeyed = []; configs = Hashtbl.create 64;
    stage_keys = Hashtbl.create 64 }

let length t = t.n
let best t = t.best
let last_improvement t = t.last_improvement
let best_so_far t = match t.best with Some (_, v) -> v | None -> nan
let virtual_seconds t = t.last_at
let hypervolume_proxy t = Option.map Pareto.hypervolume_proxy t.front
let rate t count = if t.n = 0 then 0. else float_of_int count /. float_of_int t.n
let crash_rate t = rate t t.crashes

let windowed t count =
  if t.n = 0 then 0. else float_of_int count /. float_of_int (min t.n default_window)

let windowed_crash_rate t = windowed t t.crash_in_window
let windowed_transient_rate t = windowed t t.transient_in_window

let observe t (r : Ledger.row) =
  let i = t.n in
  (match r.value with
  | Some v when improves t.metric t.best v ->
    t.best <- Some (r.index, v);
    t.last_improvement <- i + 1
  | Some _ | None -> ());
  let slot = i mod default_window in
  if i >= default_window then begin
    if t.crash_ring.(slot) then t.crash_in_window <- t.crash_in_window - 1;
    if t.transient_ring.(slot) then t.transient_in_window <- t.transient_in_window - 1
  end;
  let c = is_crash r and tr = is_transient r in
  t.crash_ring.(slot) <- c;
  t.transient_ring.(slot) <- tr;
  if c then begin
    t.crashes <- t.crashes + 1;
    t.crash_in_window <- t.crash_in_window + 1
  end;
  if tr then begin
    t.transients <- t.transients + 1;
    t.transient_in_window <- t.transient_in_window + 1
  end;
  t.bsf_ring.(slot) <- best_so_far t;
  t.unkeyed <- r :: t.unkeyed;
  (match (t.front, r.objectives) with
  | Some front, Some v when r.failure = None && Array.length v = Array.length (Pareto.spec front)
    ->
    t.front <- Some (Pareto.insert front ~index:r.index ~objectives:v)
  | _ -> ());
  t.total_eval <- t.total_eval +. r.eval_seconds;
  t.last_at <- r.at_seconds;
  t.n <- i + 1

(* Least-squares slope (score units per sample) of the running best over
   the trailing window's finite points, at their absolute row positions;
   0 with fewer than two. *)
let regret_slope t =
  let xs = ref [] and ys = ref [] in
  for i = max 0 (t.n - default_window) to t.n - 1 do
    let v = t.bsf_ring.(i mod default_window) in
    if not (Float.is_nan v) then begin
      xs := float_of_int i :: !xs;
      ys := Metric.score t.metric v :: !ys
    end
  done;
  let xs = Array.of_list (List.rev !xs) and ys = Array.of_list (List.rev !ys) in
  let k = Array.length xs in
  if k < 2 then 0.
  else begin
    let mx = Stat.mean xs and my = Stat.mean ys in
    let num = ref 0. and den = ref 0. in
    for i = 0 to k - 1 do
      num := !num +. ((xs.(i) -. mx) *. (ys.(i) -. my));
      den := !den +. ((xs.(i) -. mx) *. (xs.(i) -. mx))
    done;
    if !den = 0. then 0. else !num /. !den
  end

type stats = {
  length : int;
  best : (int * float) option;
  best_so_far : float;
  regret_slope : float;
  crash_rate : float;
  transient_rate : float;
  windowed_crash_rate : float;
  windowed_transient_rate : float;
  distinct_configs : int;
  distinct_stage_keys : int;
  pareto_size : int option;
  hypervolume_proxy : float option;
  virtual_seconds : float;
  total_eval_seconds : float;
}

let key_pending t =
  List.iter
    (fun (r : Ledger.row) ->
      Hashtbl.replace t.configs (String.concat ";" (Array.to_list r.tokens)) ();
      Hashtbl.replace t.stage_keys (stage_key t.stages r) ())
    t.unkeyed;
  t.unkeyed <- []

let stats t =
  key_pending t;
  { length = t.n;
    best = t.best;
    best_so_far = best_so_far t;
    regret_slope = regret_slope t;
    crash_rate = crash_rate t;
    transient_rate = rate t t.transients;
    windowed_crash_rate = windowed_crash_rate t;
    windowed_transient_rate = windowed_transient_rate t;
    distinct_configs = Hashtbl.length t.configs;
    distinct_stage_keys = Hashtbl.length t.stage_keys;
    pareto_size = Option.map Pareto.size t.front;
    hypervolume_proxy = hypervolume_proxy t;
    virtual_seconds = t.last_at;
    total_eval_seconds = t.total_eval }

let crash_share rows =
  let n = Array.length rows in
  if n = 0 then 0.
  else
    float_of_int (Array.fold_left (fun k r -> if is_crash r then k + 1 else k) 0 rows)
    /. float_of_int n

let mean_success rows =
  let sum = ref 0. and k = ref 0 in
  Array.iter
    (fun (r : Ledger.row) ->
      match (r.value, r.failure) with
      | Some v, None ->
        sum := !sum +. v;
        incr k
      | _ -> ())
    rows;
  if !k = 0 then Float.nan else !sum /. float_of_int !k
