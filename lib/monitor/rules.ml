module A = Wayfinder_analytics

(* Declarative alert rules over a live series.  Evaluation is pure with
   respect to the rows seen so far (plus the frozen drift baseline), so
   alerts — like everything else in this library — are a deterministic
   function of the ledger bytes.  Firing is edge-triggered: a rule
   reports once when its condition becomes true and re-arms when the
   condition clears. *)

type rule =
  | Crash of { threshold : float; window : int }
  | Stall of { iterations : int }
  | Starve of { fraction : float }
  | Drift of { window : int }

let rule_name = function
  | Crash _ -> "crash"
  | Stall _ -> "stall"
  | Starve _ -> "starve"
  | Drift _ -> "drift"

(* ------------------------------------------------------------------ *)
(* Spec grammar                                                        *)
(* ------------------------------------------------------------------ *)

(* SPEC ::= rule ("," rule)*
   rule ::= "crash>" FLOAT ["@" INT]    windowed crash rate above FLOAT
          | "stall>" INT                no best improvement in INT iters
          | "starve<" FLOAT             worker busy fraction below FLOAT
          | "drift" ["@" INT]           Analytics.Drift vs the run's own
                                        first-window baseline          *)

let parse_one s =
  let ( let* ) = Result.bind in
  let fail () = Error (Printf.sprintf "unrecognised alert rule %S" s) in
  let float_of what v =
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "%s: %S is not a number" what v)
  in
  let int_of what v =
    match int_of_string_opt v with
    | Some i when i > 0 -> Ok i
    | Some _ -> Error (Printf.sprintf "%s: must be positive" what)
    | None -> Error (Printf.sprintf "%s: %S is not an integer" what v)
  in
  let with_window rest k =
    match String.index_opt rest '@' with
    | None -> k rest A.Running.default_window
    | Some i ->
      let* w =
        int_of ("window of " ^ s)
          (String.sub rest (i + 1) (String.length rest - i - 1))
      in
      k (String.sub rest 0 i) w
  in
  let after prefix =
    let n = String.length prefix in
    if String.length s > n && String.sub s 0 n = prefix then
      Some (String.sub s n (String.length s - n))
    else None
  in
  match after "crash>" with
  | Some rest ->
    with_window rest (fun v window ->
        let* threshold = float_of s v in
        if threshold < 0. || threshold > 1. then
          Error (Printf.sprintf "%s: threshold must be in [0,1]" s)
        else Ok (Crash { threshold; window }))
  | None -> (
    match after "stall>" with
    | Some rest ->
      let* iterations = int_of s rest in
      Ok (Stall { iterations })
    | None -> (
      match after "starve<" with
      | Some rest ->
        let* fraction = float_of s rest in
        if fraction < 0. || fraction > 1. then
          Error (Printf.sprintf "%s: fraction must be in [0,1]" s)
        else Ok (Starve { fraction })
      | None ->
        if s = "drift" then Ok (Drift { window = A.Running.default_window })
        else
          with_window s (fun head window ->
              if head = "drift" then Ok (Drift { window }) else fail ())))

let parse spec =
  let parts =
    List.filter (fun s -> s <> "")
      (List.map String.trim (String.split_on_char ',' spec))
  in
  if parts = [] then Error "empty alert spec"
  else
    List.fold_left
      (fun acc part ->
        Result.bind acc (fun rules ->
            Result.map (fun r -> r :: rules) (parse_one part)))
      (Ok []) parts
    |> Result.map List.rev

let window rules =
  List.fold_left
    (fun acc rule ->
      match rule with
      | Crash { window; _ } | Drift { window } -> Some (max window (Option.value acc ~default:0))
      | Stall _ | Starve _ -> acc)
    None rules

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

type firing = { rule : string; message : string }

type entry = {
  spec : rule;
  mutable firing : bool;
  (* Drift only: (crash_rate, mean successful value) over the run's
     first [window] rows, frozen the first time the series reaches that
     length — the "training distribution" the tail is probed against. *)
  mutable baseline : (float * float) option;
}

type state = entry list

let create rules = List.map (fun spec -> { spec; firing = false; baseline = None }) rules

(* [Some message] while the rule's condition holds.  The message is a
   thunk: [evaluate] formats it only for a new firing, not on every row
   the condition keeps holding. *)
let condition entry ?worker_busy live =
  let n = Live_series.length live in
  match entry.spec with
  | Crash { threshold; window } ->
    let rate = A.Running.crash_share (Live_series.tail_series live ~window).A.Series.rows in
    if rate > threshold then
      Some
        (fun () ->
          Printf.sprintf "windowed crash rate %.0f%% > %.0f%% (window %d)" (100. *. rate)
            (100. *. threshold) window)
    else None
  | Stall { iterations } ->
    let stalled = n - Live_series.last_improvement live in
    if n > 0 && stalled >= iterations then
      Some
        (fun () ->
          Printf.sprintf "no best improvement in %d iterations (threshold %d)" stalled
            iterations)
    else None
  | Starve { fraction } -> (
    match worker_busy with
    | Some busy when busy < fraction ->
      Some
        (fun () ->
          Printf.sprintf "worker pool %.0f%% busy < %.0f%%" (100. *. busy) (100. *. fraction))
    | Some _ | None -> None)
  | Drift { window } ->
    (* Freeze the baseline once the first window is complete; probe the
       trailing window once a full second window exists, so baseline and
       probe rows never overlap. *)
    (if entry.baseline = None && n >= window then begin
       let head = (Live_series.head_series live ~window).A.Series.rows in
       entry.baseline <- Some (A.Running.crash_share head, A.Running.mean_success head)
     end);
    (match entry.baseline with
    | Some (donor_crash_rate, donor_mean) when n >= 2 * window -> (
      let probe =
        A.Drift.probe ~window ~donor_crash_rate ~donor_mean
          (Live_series.tail_series live ~window)
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
        if fresh then Some { rule = rule_name entry.spec; message = message () } else None
      | None ->
        entry.firing <- false;
        None)
    state

let active state =
  List.filter_map
    (fun entry -> if entry.firing then Some (rule_name entry.spec) else None)
    state
