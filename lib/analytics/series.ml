module Param = Wayfinder_configspace.Param
module Space = Wayfinder_configspace.Space
module History = Wayfinder_platform.History
module Metric = Wayfinder_platform.Metric
module Failure = Wayfinder_platform.Failure
module Search_algorithm = Wayfinder_platform.Search_algorithm

type row = Ledger.row = {
  index : int;
  tokens : string array;
  value : float option;
  failure : Failure.t option;
  at_seconds : float;
  eval_seconds : float;
  built : bool;
  decide_seconds : float;
  belief : Search_algorithm.belief option;
  objectives : float array option;
}

type t = {
  metric : Metric.t;
  names : string array;
  stages : Param.stage array;
  rows : row array;
  objectives : Metric.t array;
}

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let of_history ?(beliefs = fun _ -> None) ?(objectives = [||]) ~space history =
  let entries = History.entries history in
  { metric = History.metric history;
    names = Array.map (fun (p : Param.t) -> p.Param.name) (Space.params space);
    stages = Array.map (fun (p : Param.t) -> p.Param.stage) (Space.params space);
    rows =
      Array.map
        (fun (e : History.entry) -> Ledger.row_of_entry e (beliefs e.History.index))
        entries;
    objectives }

let of_ledger (ledger : Ledger.t) =
  let params = Array.of_list ledger.Ledger.meta.Ledger.params in
  { metric = ledger.Ledger.meta.Ledger.metric;
    names = Array.map fst params;
    stages = Array.map snd params;
    rows = Array.of_list ledger.Ledger.rows;
    objectives = Array.of_list ledger.Ledger.meta.Ledger.objectives }

(* --from-csv: reconstruct what History.to_csv preserves.  The CSV has no
   configurations or beliefs, so coverage and calibration degenerate to
   empty — convergence and failure-rate series still work. *)

let csv_records s =
  (* Full RFC 4180 state machine: quoted fields may contain commas,
     quotes (doubled) and line breaks. *)
  let records = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let n = String.length s in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_record () =
    flush_field ();
    records := List.rev !fields :: !records;
    fields := []
  in
  let i = ref 0 in
  let in_quotes = ref false in
  while !i < n do
    let c = s.[!i] in
    (if !in_quotes then
       match c with
       | '"' ->
         if !i + 1 < n && s.[!i + 1] = '"' then begin
           Buffer.add_char buf '"';
           incr i
         end
         else in_quotes := false
       | c -> Buffer.add_char buf c
     else
       match c with
       | '"' -> in_quotes := true
       | ',' -> flush_field ()
       | '\n' -> flush_record ()
       | '\r' -> ()
       | c -> Buffer.add_char buf c);
    incr i
  done;
  if Buffer.length buf > 0 || !fields <> [] then flush_record ();
  List.rev !records

let of_csv ~metric s =
  match csv_records s with
  | [] -> Error "empty CSV"
  | header :: data ->
    let col name =
      let rec find i = function
        | [] -> None
        | h :: _ when h = name -> Some i
        | _ :: rest -> find (i + 1) rest
      in
      find 0 header
    in
    let require name =
      match col name with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "CSV has no %S column" name)
    in
    let ( let* ) = Result.bind in
    let* i_index = require "index" in
    let* i_value = require "value" in
    let* i_failure = require "failure" in
    let* i_at = require "at_s" in
    let* i_eval = require "eval_s" in
    let* i_built = require "built" in
    let* i_decide = require "decide_s" in
    let parse_row lineno fields =
      let arr = Array.of_list fields in
      let get i =
        if i < Array.length arr then Ok arr.(i)
        else Error (Printf.sprintf "CSV line %d: missing column %d" lineno i)
      in
      let num what i =
        let* s = get i in
        match float_of_string_opt s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "CSV line %d: bad %s %S" lineno what s)
      in
      let* index = num "index" i_index in
      let* value_s = get i_value in
      let* value =
        if value_s = "" then Ok None
        else
          match float_of_string_opt value_s with
          | Some v -> Ok (Some v)
          | None -> Error (Printf.sprintf "CSV line %d: bad value %S" lineno value_s)
      in
      let* failure_s = get i_failure in
      let failure = if failure_s = "" then None else Some (Failure.of_string failure_s) in
      let* at_seconds = num "at_s" i_at in
      let* eval_seconds = num "eval_s" i_eval in
      let* built_s = get i_built in
      let* built =
        match bool_of_string_opt built_s with
        | Some b -> Ok b
        | None -> Error (Printf.sprintf "CSV line %d: bad built %S" lineno built_s)
      in
      let* decide_seconds = num "decide_s" i_decide in
      Ok
        { index = int_of_float index;
          tokens = [||];
          value;
          failure;
          at_seconds;
          eval_seconds;
          built;
          decide_seconds;
          belief = None;
          objectives = None }
    in
    let* rows =
      let rec go lineno acc = function
        | [] -> Ok (List.rev acc)
        | [ "" ] :: rest -> go (lineno + 1) acc rest
        | fields :: rest ->
          let* row = parse_row lineno fields in
          go (lineno + 1) (row :: acc) rest
      in
      go 2 [] data
    in
    Ok { metric; names = [||]; stages = [||]; rows = Array.of_list rows; objectives = [||] }

(* ------------------------------------------------------------------ *)
(* The statistics fold                                                 *)
(* ------------------------------------------------------------------ *)

let fresh t = Running.create ~metric:t.metric ~stages:t.stages ~objectives:t.objectives ()

let running t =
  let run = fresh t in
  Array.iter (Running.observe run) t.rows;
  run

let stats t = Running.stats (running t)

(* The fold's state after each row, projected by [f]. *)
let scan t f =
  let run = fresh t in
  Array.map
    (fun r ->
      Running.observe run r;
      f run)
    t.rows

(* ------------------------------------------------------------------ *)
(* Convergence series                                                  *)
(* ------------------------------------------------------------------ *)

let length t = Array.length t.rows
let best t = Running.best (running t)
let best_so_far t = scan t Running.best_so_far

(* The final best's score: the last running best, when it is a value. *)
let final_score t bsf =
  let n = Array.length bsf in
  if n = 0 || Float.is_nan bsf.(n - 1) then None
  else Some (Metric.score t.metric bsf.(n - 1))

(* Simple regret in score units (higher-is-better view): distance of the
   running best from the run's final best.  NaN before the first
   success; 0 from the iteration the final best was found. *)
let simple_regret t =
  let bsf = best_so_far t in
  match final_score t bsf with
  | None -> bsf (* all NaN already *)
  | Some final_score ->
    Array.map
      (fun v -> if Float.is_nan v then nan else final_score -. Metric.score t.metric v)
      bsf

(* First iteration whose running best lands within [epsilon] (relative,
   on score magnitude) of the run's final best.  Returns the number of
   samples spent, i.e. index + 1. *)
let within_threshold t ~epsilon =
  let bsf = best_so_far t in
  match final_score t bsf with
  | None -> None
  | Some final_score ->
    let threshold = final_score -. (epsilon *. Float.abs final_score) in
    let n = Array.length bsf in
    let rec go i =
      if i >= n then None
      else if (not (Float.is_nan bsf.(i))) && Metric.score t.metric bsf.(i) >= threshold then
        Some i
      else go (i + 1)
    in
    go 0

let samples_to_within t ~epsilon =
  Option.map (fun i -> i + 1) (within_threshold t ~epsilon)

let virtual_seconds_to_within t ~epsilon =
  Option.map (fun i -> t.rows.(i).at_seconds) (within_threshold t ~epsilon)

let samples_to_best t =
  match best t with
  | None -> None
  | Some (index, _) ->
    (* Position in completion order, not the proposal index (they differ
       under multi-worker interleaving). *)
    let rec go i =
      if i >= length t then None
      else if t.rows.(i).index = index then Some (i + 1)
      else go (i + 1)
    in
    go 0

(* ------------------------------------------------------------------ *)
(* Plotting series                                                     *)
(* ------------------------------------------------------------------ *)

(* Failures repeat the previous value; leading failures are backfilled
   with the first success (0 when there is none). *)
let values t =
  let n = length t in
  let out = Array.make n nan in
  let first_success =
    Array.fold_left
      (fun acc r -> match (acc, r.value) with None, Some v -> Some v | _ -> acc)
      None t.rows
  in
  let prev = ref (Option.value ~default:0. first_success) in
  for i = 0 to n - 1 do
    (match t.rows.(i).value with Some v -> prev := v | None -> ());
    out.(i) <- !prev
  done;
  out

let crash_indicator t =
  Array.map (fun r -> if r.failure <> None then 1. else 0.) t.rows

(* Best-so-far over virtual time, bucketed: bin i covers
   [i*bucket_s, (i+1)*bucket_s); gaps forward-fill (matching the paper's
   Figure 9 rendering). *)
let best_over_time t ~bucket_s ~horizon_s =
  if bucket_s <= 0. then invalid_arg "Series.best_over_time: bucket_s must be positive";
  let n_buckets = int_of_float (horizon_s /. bucket_s) + 1 in
  let out = Array.make n_buckets nan in
  let bsf = best_so_far t in
  Array.iteri
    (fun i r ->
      let b = int_of_float (r.at_seconds /. bucket_s) in
      if b >= 0 && b < n_buckets then out.(b) <- bsf.(i))
    t.rows;
  let prev = ref nan in
  Array.iteri (fun i v -> if Float.is_nan v then out.(i) <- !prev else prev := v) out;
  out

(* ------------------------------------------------------------------ *)
(* Failure rates                                                       *)
(* ------------------------------------------------------------------ *)

let windowed_crash_rate t = scan t Running.windowed_crash_rate
let windowed_transient_rate t = scan t Running.windowed_transient_rate

let failure_counts t =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun r ->
      match r.failure with
      | None -> ()
      | Some f ->
        let k = Failure.to_string f in
        Hashtbl.replace tbl k ((try Hashtbl.find tbl k with Not_found -> 0) + 1))
    t.rows;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* Space coverage                                                      *)
(* ------------------------------------------------------------------ *)

let marginals t =
  Array.mapi
    (fun p name ->
      let counts = Hashtbl.create 8 in
      Array.iter
        (fun r ->
          if p < Array.length r.tokens then begin
            let tok = r.tokens.(p) in
            Hashtbl.replace counts tok ((try Hashtbl.find counts tok with Not_found -> 0) + 1)
          end)
        t.rows;
      (name, List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])))
    t.names

(* ------------------------------------------------------------------ *)
(* Objective series                                                    *)
(* ------------------------------------------------------------------ *)

let objective_count t = Array.length t.objectives

(* Running best (iteration index, raw value) of objective [i] after each
   row; rows without a vector are skipped. *)
let objective_scan t i =
  let m = t.objectives.(i) in
  let best = ref None in
  Array.map
    (fun (r : row) ->
      (match r.objectives with
      | Some v when i < Array.length v && Running.improves m !best v.(i) ->
        best := Some (r.index, v.(i))
      | Some _ | None -> ());
      !best)
    t.rows

let objective_best t i =
  let s = objective_scan t i in
  if Array.length s = 0 then None else s.(Array.length s - 1)

let objective_best_so_far t i =
  Array.map (function Some (_, v) -> v | None -> nan) (objective_scan t i)
