module Space = Wayfinder_configspace.Space

type entry = {
  index : int;
  config : Space.configuration;
  value : float option;
  failure : Failure.t option;
  at_seconds : float;
  eval_seconds : float;
  built : bool;
  decide_seconds : float;
  objectives : float array option;
}

type t = { metric : Metric.t; mutable entries : entry list; mutable count : int }

let create metric = { metric; entries = []; count = 0 }
let metric t = t.metric

let add t e =
  t.entries <- e :: t.entries;
  t.count <- t.count + 1

let size t = t.count

let entries t =
  let a = Array.of_list t.entries in
  let n = Array.length a in
  Array.init n (fun i -> a.(n - 1 - i))

let latest t n =
  let rec take n acc = function
    | e :: rest when n > 0 -> take (n - 1) (e :: acc) rest
    | _ :: _ | [] -> acc
  in
  take n [] t.entries

let crashes t =
  List.fold_left (fun acc e -> if e.failure <> None then acc + 1 else acc) 0 t.entries

let crash_rate t = if t.count = 0 then 0. else float_of_int (crashes t) /. float_of_int t.count

let count_class t klass =
  List.fold_left
    (fun acc e ->
      match e.failure with
      | Some f when Failure.klass f = klass -> acc + 1
      | Some _ | None -> acc)
    0 t.entries

let transient_failures t = count_class t Failure.Transient + count_class t Failure.Timeout

let transient_rate t =
  if t.count = 0 then 0. else float_of_int (transient_failures t) /. float_of_int t.count

let windowed_crash_rate t ~window =
  let rec take n = function
    | e :: rest when n > 0 -> e :: take (n - 1) rest
    | _ :: _ | [] -> []
  in
  let recent = take window t.entries in
  match recent with
  | [] -> 0.
  | _ :: _ ->
    let c = List.fold_left (fun acc e -> if e.failure <> None then acc + 1 else acc) 0 recent in
    float_of_int c /. float_of_int (List.length recent)

let best t =
  List.fold_left
    (fun acc e ->
      match (e.value, acc) with
      | None, _ -> acc
      | Some _, None -> Some e
      | Some v, Some b -> (
        match b.value with
        | Some bv when Metric.better t.metric v bv -> Some e
        | Some _ | None -> acc))
    None t.entries

let best_value t = Option.bind (best t) (fun e -> e.value)
let time_to_best t = Option.map (fun e -> e.at_seconds) (best t)

let builds_charged t =
  List.fold_left (fun acc e -> if e.built then acc + 1 else acc) 0 t.entries

let total_eval_seconds t = List.fold_left (fun acc e -> acc +. e.eval_seconds) 0. t.entries

let mean_decide_seconds t =
  if t.count = 0 then 0.
  else List.fold_left (fun acc e -> acc +. e.decide_seconds) 0. t.entries /. float_of_int t.count

(* RFC 4180: fields containing separators, quotes or line breaks are
   wrapped in double quotes, with embedded quotes doubled. *)
let csv_field s =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quoting then s
  else begin
    let buf = Buffer.create (String.length s + 4) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "index,value,failure,failure_class,at_s,eval_s,built,decide_s\n";
  Array.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%s,%s,%.1f,%.1f,%b,%.6f\n" e.index
           (match e.value with Some v -> Printf.sprintf "%.3f" v | None -> "")
           (csv_field (match e.failure with Some f -> Failure.to_string f | None -> ""))
           (csv_field
              (match e.failure with
              | Some f -> Failure.klass_to_string (Failure.klass f)
              | None -> ""))
           e.at_seconds e.eval_seconds e.built e.decide_seconds))
    (entries t);
  Buffer.contents buf
