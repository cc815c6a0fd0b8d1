module Param = Wayfinder_configspace.Param
module Metric = Wayfinder_platform.Metric
module A = Wayfinder_analytics

(* A live run's rows plus the statistics fold, {!A.Running}, that batch
   {!A.Series} reports run too; this module only keeps the rows. *)

let dummy_row : A.Series.row =
  { index = -1; tokens = [||]; value = None; failure = None; at_seconds = 0.;
    eval_seconds = 0.; built = false; decide_seconds = 0.; belief = None;
    objectives = None }

type t = {
  metric : Metric.t;
  names : string array;
  stages : Param.stage array;
  objectives : Metric.t array;
  running : A.Running.t;
  (* Full row history (tail_series / series need the rows themselves).
     Doubling array, never shrunk. *)
  mutable buf : A.Series.row array;
  mutable n : int;
}

let create ~metric ~names ~stages ~objectives () =
  { metric; names; stages; objectives;
    running = A.Running.create ~metric ~stages ~objectives ();
    buf = Array.make 64 dummy_row; n = 0 }

let of_meta (m : A.Ledger.meta) =
  let params = Array.of_list m.A.Ledger.params in
  create ~metric:m.A.Ledger.metric ~names:(Array.map fst params)
    ~stages:(Array.map snd params)
    ~objectives:(Array.of_list m.A.Ledger.objectives) ()

let observe t (r : A.Series.row) =
  if t.n = Array.length t.buf then begin
    let bigger = Array.make (2 * t.n) dummy_row in
    Array.blit t.buf 0 bigger 0 t.n;
    t.buf <- bigger
  end;
  t.buf.(t.n) <- r;
  t.n <- t.n + 1;
  A.Running.observe t.running r

let length t = t.n
let last_improvement t = A.Running.last_improvement t.running
let stats t = A.Running.stats t.running
let progress t = A.Progress.of_running t.running

let series t =
  { A.Series.metric = t.metric; names = t.names; stages = t.stages;
    rows = Array.sub t.buf 0 t.n; objectives = t.objectives }

let tail_series t ~window =
  if window <= 0 then invalid_arg "Live_series.tail_series: window must be positive";
  let k = min t.n window in
  { A.Series.metric = t.metric; names = t.names; stages = t.stages;
    rows = Array.sub t.buf (t.n - k) k; objectives = t.objectives }
