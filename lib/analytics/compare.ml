module Metric = Wayfinder_platform.Metric

type t = {
  metric : Metric.t;
  labels : string array;
  budgets : int array;
  best_at : float array array;  (** [best_at.(run).(budget)]; NaN = no success yet. *)
  winners : int option array;  (** Per budget, index into [labels]. *)
  finals : (int * float) option array;  (** Per run: (samples, best value). *)
  hypervolumes : float option array;
      (** Per run: final hypervolume proxy, when every run shares the same
          non-empty objective spec; all [None] otherwise. *)
}

(* Default sample budgets: 5, 10, 25, 50, 100, 250, ... clipped to the
   shortest run, plus the shortest run's full length — so every column
   compares runs at a budget they all actually spent. *)
let default_budgets ~max_len =
  if max_len <= 0 then []
  else begin
    let rec steps acc = function
      | [] -> acc
      | b :: rest -> if b < max_len then steps (b :: acc) rest else acc
    in
    let bases =
      [ 5; 10; 25; 50; 100; 250; 500; 1000; 2500; 5000; 10000; 25000; 50000; 100000 ]
    in
    List.rev (max_len :: steps [] bases)
  end

let make ?budgets runs =
  match runs with
  | [] -> Error "compare needs at least one run"
  | (_, (first : Series.t)) :: rest ->
    let metric = first.Series.metric in
    let mismatched =
      List.filter
        (fun (_, (s : Series.t)) ->
          s.Series.metric.Metric.metric_name <> metric.Metric.metric_name
          || s.Series.metric.Metric.maximize <> metric.Metric.maximize)
        rest
    in
    (match mismatched with
    | (label, _) :: _ ->
      Error
        (Printf.sprintf "run %S measures a different metric than %S" label
           (fst (List.hd runs)))
    | [] ->
      let min_len =
        List.fold_left (fun acc (_, s) -> min acc (Series.length s)) (Series.length first) rest
      in
      if min_len = 0 then Error "compare needs runs with at least one iteration"
      else begin
        let budgets =
          match budgets with
          | Some bs ->
            List.sort_uniq compare (List.filter (fun b -> b > 0 && b <= min_len) bs)
          | None -> default_budgets ~max_len:min_len
        in
        match budgets with
        | [] -> Error "no budget is within every run's length"
        | _ ->
          let budgets = Array.of_list budgets in
          let labels = Array.of_list (List.map fst runs) in
          let curves = List.map (fun (_, s) -> Series.best_so_far s) runs in
          let best_at =
            Array.of_list
              (List.map
                 (fun curve -> Array.map (fun b -> curve.(b - 1)) budgets)
                 curves)
          in
          let winners =
            Array.init (Array.length budgets) (fun bi ->
                let best = ref None in
                Array.iteri
                  (fun run _ ->
                    let v = best_at.(run).(bi) in
                    if not (Float.is_nan v) then
                      match !best with
                      | None -> best := Some (run, v)
                      | Some (_, bv) -> if Metric.better metric v bv then best := Some (run, v))
                  labels;
                Option.map fst !best)
          in
          let finals =
            Array.of_list
              (List.map
                 (fun (_, s) ->
                   Option.map
                     (fun (_, v) ->
                       (Option.value ~default:(Series.length s) (Series.samples_to_best s), v))
                     (Series.best s))
                 runs)
          in
          (* Hypervolume proxies are only comparable when every run
             measured the same objectives. *)
          let spec_names (s : Series.t) =
            Array.to_list
              (Array.map (fun (m : Metric.t) -> m.Metric.metric_name) s.Series.objectives)
          in
          let shared_spec =
            spec_names first <> []
            && List.for_all (fun (_, s) -> spec_names s = spec_names first) rest
          in
          let hypervolumes =
            Array.of_list
              (List.map
                 (fun (_, s) ->
                   if shared_spec then Running.hypervolume_proxy (Series.running s) else None)
                 runs)
          in
          Ok { metric; labels; budgets; best_at; winners; finals; hypervolumes }
      end)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let to_text t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "metric: %s [%s, %s]" t.metric.Metric.metric_name t.metric.Metric.unit_name
    (if t.metric.Metric.maximize then "maximize" else "minimize");
  line "best-so-far per sample budget (winner starred):";
  Buffer.add_string buf (Printf.sprintf "%10s" "budget");
  Array.iter (fun l -> Buffer.add_string buf (Printf.sprintf " %16s" l)) t.labels;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun bi b ->
      Buffer.add_string buf (Printf.sprintf "%10d" b);
      Array.iteri
        (fun run _ ->
          let v = t.best_at.(run).(bi) in
          let cell =
            if Float.is_nan v then "-"
            else
              Printf.sprintf "%.3f%s" v (if t.winners.(bi) = Some run then "*" else "")
          in
          Buffer.add_string buf (Printf.sprintf " %16s" cell))
        t.labels;
      Buffer.add_char buf '\n')
    t.budgets;
  (* Deltas of each run vs the winner at the largest shared budget. *)
  let last = Array.length t.budgets - 1 in
  (match t.winners.(last) with
  | None -> line "no run succeeded within the shared budget"
  | Some w ->
    line "at budget %d, %s leads:" t.budgets.(last) t.labels.(w);
    Array.iteri
      (fun run label ->
        if run <> w then begin
          let v = t.best_at.(run).(last) and bv = t.best_at.(w).(last) in
          if Float.is_nan v then line "  %-16s no successful evaluation" label
          else begin
            let gap = Metric.score t.metric bv -. Metric.score t.metric v in
            line "  %-16s behind by %.3f (score units)" label gap
          end
        end)
      t.labels);
  if Array.exists Option.is_some t.hypervolumes then begin
    line "hypervolume proxy (shared objectives):";
    Array.iteri
      (fun run label ->
        match t.hypervolumes.(run) with
        | Some hv -> line "  %-16s %.4f" label hv
        | None -> line "  %-16s -" label)
      t.labels
  end;
  Buffer.contents buf

let to_json t =
  (* Appended only when present, keeping scalar comparisons byte-stable. *)
  let hv_members =
    if not (Array.exists Option.is_some t.hypervolumes) then []
    else
      [ ( "hypervolume_proxy",
          Json.Obj
            (Array.to_list
               (Array.mapi
                  (fun run label ->
                    ( label,
                      match t.hypervolumes.(run) with
                      | Some hv -> Json.Num hv
                      | None -> Json.Null ))
                  t.labels)) ) ]
  in
  Json.Obj
    ([ ( "metric",
        Json.Obj
          [ ("name", Json.Str t.metric.Metric.metric_name);
            ("unit", Json.Str t.metric.Metric.unit_name);
            ("maximize", Json.Bool t.metric.Metric.maximize) ] );
      ("labels", Json.List (Array.to_list (Array.map (fun l -> Json.Str l) t.labels)));
      ( "budgets",
        Json.List (Array.to_list (Array.map (fun b -> Json.Num (float_of_int b)) t.budgets)) );
      ( "best_at",
        Json.Obj
          (Array.to_list
             (Array.mapi
                (fun run label ->
                  ( label,
                    Json.List
                      (Array.to_list (Array.map (fun v -> Json.Num v) t.best_at.(run))) ))
                t.labels)) );
      ( "winners",
        Json.List
          (Array.to_list
             (Array.map
                (function Some w -> Json.Str t.labels.(w) | None -> Json.Null)
                t.winners)) );
      ( "finals",
        Json.Obj
          (Array.to_list
             (Array.mapi
                (fun run label ->
                  ( label,
                    match t.finals.(run) with
                    | Some (samples, v) ->
                      Json.Obj
                        [ ("samples_to_best", Json.Num (float_of_int samples));
                          ("best", Json.Num v) ]
                    | None -> Json.Null ))
                t.labels)) ) ]
     @ hv_members)
