module Param = Wayfinder_configspace.Param
module Metric = Wayfinder_platform.Metric
module A = Wayfinder_analytics

(* A live run's statistics fold, {!A.Running}, the fold batch
   {!A.Series} reports run too, plus the few rows its rules read: a ring
   of the trailing [window] rows and the run's first [window] rows. *)

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
  (* Row [i] sits in slot [i mod window] until row [i + window] takes
     it. *)
  ring : A.Series.row array;
  (* Rows [0, window), filled once: the drift baseline's first window. *)
  head : A.Series.row array;
  mutable n : int;
}

let create ?(window = A.Running.default_window) ~metric ~names ~stages ~objectives () =
  if window <= 0 then invalid_arg "Live_series.create: window must be positive";
  { metric; names; stages; objectives;
    running = A.Running.create ~metric ~stages ~objectives ();
    ring = Array.make window dummy_row; head = Array.make window dummy_row; n = 0 }

let of_meta ?window (m : A.Ledger.meta) =
  let params = Array.of_list m.A.Ledger.params in
  create ?window ~metric:m.A.Ledger.metric ~names:(Array.map fst params)
    ~stages:(Array.map snd params)
    ~objectives:(Array.of_list m.A.Ledger.objectives) ()

let observe t (r : A.Series.row) =
  let window = Array.length t.ring in
  (* A row the fold has not keyed yet must not outlive its slot: once a
     lap, key the pending rows, so the fold holds at most [window]. *)
  if t.n mod window = 0 then A.Running.key_pending t.running;
  t.ring.(t.n mod window) <- r;
  if t.n < window then t.head.(t.n) <- r;
  t.n <- t.n + 1;
  A.Running.observe t.running r

let length t = t.n
let last_improvement t = A.Running.last_improvement t.running
let stats t = A.Running.stats t.running
let progress t = A.Progress.of_running t.running

let batch t rows =
  { A.Series.metric = t.metric; names = t.names; stages = t.stages; rows;
    objectives = t.objectives }

let check_window name t window =
  if window <= 0 || window > Array.length t.ring then
    invalid_arg
      (Printf.sprintf "Live_series.%s: window must be in [1, %d]" name (Array.length t.ring))

let tail_series t ~window =
  check_window "tail_series" t window;
  let k = min t.n window and cap = Array.length t.ring in
  batch t (Array.init k (fun j -> t.ring.((t.n - k + j) mod cap)))

let head_series t ~window =
  check_window "head_series" t window;
  batch t (Array.sub t.head 0 (min t.n window))
