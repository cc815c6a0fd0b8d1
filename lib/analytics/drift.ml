(* Stale-model probe: live ledger tail vs. the donor's recorded training
   distribution.  See the .mli and DESIGN.md §16 for the policy. *)

type verdict = Fresh | Stale of string list

type probe = {
  live_crash_rate : float;
  donor_crash_rate : float;
  live_mean : float;
  donor_mean : float;
  window : int;
  verdict : verdict;
}

let probe ?(window = 20) ?(crash_margin = 0.25) ?(mean_margin = 0.5) ?(min_samples = 5)
    ~donor_crash_rate ~donor_mean series =
  if window <= 0 then invalid_arg "Drift.probe: window must be positive";
  let n = Series.length series in
  let voting = min window n in
  let tail_rows = Array.sub series.Series.rows (n - voting) voting in
  let live_crash_rate = Running.crash_share tail_rows in
  let live_mean = Running.mean_success tail_rows in
  let reasons = ref [] in
  if voting >= min_samples then begin
    if live_crash_rate > donor_crash_rate +. crash_margin then
      reasons :=
        Printf.sprintf
          "crash rate drifted: %.0f%% in the live window vs %.0f%% at training time"
          (100. *. live_crash_rate) (100. *. donor_crash_rate)
        :: !reasons;
    (* A mean shift only counts when both sides actually measured
       successes; all-crash windows are the crash check's business. *)
    if
      (not (Float.is_nan live_mean))
      && (not (Float.is_nan donor_mean))
      && Float.abs (live_mean -. donor_mean)
         > mean_margin *. Float.max (Float.abs donor_mean) 1e-9
    then
      reasons :=
        Printf.sprintf
          "metric distribution drifted: live mean %g vs %g at training time" live_mean
          donor_mean
        :: !reasons
  end;
  { live_crash_rate;
    donor_crash_rate;
    live_mean;
    donor_mean;
    window = voting;
    verdict = (match List.rev !reasons with [] -> Fresh | rs -> Stale rs) }

let verdict_to_string = function
  | Fresh -> "fresh"
  | Stale reasons -> "stale (" ^ String.concat "; " reasons ^ ")"

let to_string p =
  Printf.sprintf "drift probe over %d rows: %s [crash %.0f%% vs %.0f%%; mean %g vs %g]"
    p.window (verdict_to_string p.verdict) (100. *. p.live_crash_rate)
    (100. *. p.donor_crash_rate) p.live_mean p.donor_mean
