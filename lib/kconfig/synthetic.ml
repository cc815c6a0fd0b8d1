module Rng = Wayfinder_tensor.Rng

type profile = {
  version : string;
  n_bool : int;
  n_tristate : int;
  n_string : int;
  n_hex : int;
  n_int : int;
  seed : int;
}

let total p = p.n_bool + p.n_tristate + p.n_string + p.n_hex + p.n_int

let linux_6_0 =
  { version = "6.0"; n_bool = 7585; n_tristate = 10034; n_string = 154; n_hex = 94; n_int = 3405;
    seed = 60 }

(* Historical compile-time option counts; endpoints anchored on the ~5k
   options of 2.6.12 and the Table 1 census for 6.0, with the intermediate
   releases interpolating the near-linear growth of Figure 1. *)
let history =
  [ ("2.6.12", 2005, 5338); ("2.6.20", 2007, 6712); ("2.6.28", 2009, 8240);
    ("2.6.35", 2010, 10180); ("3.0", 2011, 11328); ("3.10", 2013, 12810);
    ("4.0", 2015, 14312); ("4.9", 2016, 15930); ("4.19", 2018, 17204);
    ("5.4", 2019, 18510); ("5.10", 2020, 19480); ("6.0", 2022, 21272) ]

let proportions =
  let t = float_of_int (total linux_6_0) in
  ( float_of_int linux_6_0.n_bool /. t,
    float_of_int linux_6_0.n_tristate /. t,
    float_of_int linux_6_0.n_string /. t,
    float_of_int linux_6_0.n_hex /. t )

let profile_of_total version seed n =
  if version = linux_6_0.version then { linux_6_0 with seed }
  else begin
    let pb, pt, ps, ph = proportions in
    let n_bool = int_of_float (float_of_int n *. pb) in
    let n_tristate = int_of_float (float_of_int n *. pt) in
    let n_string = int_of_float (float_of_int n *. ps) in
    let n_hex = int_of_float (float_of_int n *. ph) in
    let n_int = n - n_bool - n_tristate - n_string - n_hex in
    { version; n_bool; n_tristate; n_string; n_hex; n_int; seed }
  end

let linux_profiles =
  List.map (fun (version, year, n) -> profile_of_total version year n) history

let profile_for_version v = List.find_opt (fun p -> p.version = v) linux_profiles

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let subsystems =
  [| "NET"; "FS"; "MM"; "SCHED"; "DRM"; "USB"; "SND"; "BLOCK"; "CRYPTO"; "PCI"; "ARCH"; "SECURITY";
     "POWER"; "IRQ"; "TRACE"; "VIRT" |]

let feature_words =
  [| "CORE"; "DEBUG"; "STATS"; "CACHE"; "QUEUE"; "POLL"; "OFFLOAD"; "COMPAT"; "LEGACY"; "FAST";
     "LAZY"; "BATCH"; "ASYNC"; "DIRECT"; "HUGE"; "TINY"; "EXT"; "ACCEL"; "BRIDGE"; "FILTER" |]

let help_snippets =
  [| "Enable this option to support the corresponding subsystem feature.";
     "If unsure, say N.";
     "This option controls an internal tuning knob; the default is safe.";
     "Support for optional hardware found on some platforms.";
     "Selecting this may increase kernel size." |]

type slot = { s_type : Ast.symbol_type; s_index : int }

let make_name rng subsystem slot =
  let word1 = Rng.choice rng feature_words in
  let word2 = Rng.choice rng feature_words in
  Printf.sprintf "%s_%s_%s_%d" subsystem word1 word2 slot.s_index

(* Pick a dependency expression over previously declared bool/tristate
   symbols of the same menu. *)
let make_depends rng (previous : string array) n_previous =
  if n_previous = 0 then []
  else begin
    let pick () = previous.(Rng.int rng n_previous) in
    let atom () =
      let s = Ast.Symbol (pick ()) in
      if Rng.bernoulli rng 0.1 then Ast.Not s else s
    in
    let expr =
      match Rng.int rng 3 with
      | 0 -> atom ()
      | 1 -> Ast.And (atom (), atom ())
      | _ -> Ast.Or (atom (), atom ())
    in
    [ expr ]
  end

let int_ranges = [| (0, 64); (0, 1024); (1, 4096); (16, 65536); (0, 1048576) |]

let make_entry rng subsystem slot ~previous ~n_previous ~dep_free =
  let name = make_name rng subsystem slot in
  let base = Ast.empty_entry name slot.s_type in
  let with_deps =
    if (slot.s_type = Ast.Bool || slot.s_type = Ast.Tristate) && Rng.bernoulli rng 0.4 then
      { base with Ast.depends = make_depends rng previous n_previous }
    else base
  in
  let with_select =
    if (slot.s_type = Ast.Bool || slot.s_type = Ast.Tristate)
       && with_deps.Ast.depends = [] && Rng.bernoulli rng 0.06 && !dep_free <> []
    then begin
      let targets = Array.of_list !dep_free in
      { with_deps with Ast.selects = [ (Rng.choice rng targets, None) ] }
    end
    else with_deps
  in
  let with_defaults =
    match slot.s_type with
    | Ast.Bool ->
      if Rng.bernoulli rng 0.3 then
        { with_select with Ast.defaults = [ (Ast.Dv_tristate Tristate.Y, None) ] }
      else with_select
    | Ast.Tristate ->
      let d = Rng.float rng 1.0 in
      if d < 0.2 then { with_select with Ast.defaults = [ (Ast.Dv_tristate Tristate.M, None) ] }
      else if d < 0.3 then
        { with_select with Ast.defaults = [ (Ast.Dv_tristate Tristate.Y, None) ] }
      else with_select
    | Ast.Int | Ast.Hex ->
      let lo, hi = Rng.choice rng int_ranges in
      let default = Rng.int_in rng lo hi in
      { with_select with
        Ast.range = Some (lo, hi);
        defaults = [ (Ast.Dv_int default, None) ] }
    | Ast.String ->
      { with_select with Ast.defaults = [ (Ast.Dv_string (String.lowercase_ascii subsystem), None) ] }
  in
  let with_prompt =
    if Rng.bernoulli rng 0.8 then
      { with_defaults with Ast.prompt = Some (Printf.sprintf "Enable %s" name) }
    else with_defaults
  in
  if Rng.bernoulli rng 0.3 then
    { with_prompt with Ast.help = Some (Rng.choice rng help_snippets) }
  else with_prompt

let generate profile =
  let rng = Rng.create profile.seed in
  (* Build the multiset of typed slots, shuffle it, then deal the slots
     across subsystem menus. *)
  let slots =
    Array.concat
      [ Array.init profile.n_bool (fun i -> { s_type = Ast.Bool; s_index = i });
        Array.init profile.n_tristate (fun i -> { s_type = Ast.Tristate; s_index = profile.n_bool + i });
        Array.init profile.n_string (fun i ->
            { s_type = Ast.String; s_index = profile.n_bool + profile.n_tristate + i });
        Array.init profile.n_hex (fun i ->
            { s_type = Ast.Hex; s_index = profile.n_bool + profile.n_tristate + profile.n_string + i });
        Array.init profile.n_int (fun i ->
            { s_type = Ast.Int;
              s_index = profile.n_bool + profile.n_tristate + profile.n_string + profile.n_hex + i }) ]
  in
  Rng.shuffle rng slots;
  let n = Array.length slots in
  let n_menus = Array.length subsystems in
  let per_menu = max 1 ((n + n_menus - 1) / n_menus) in
  let dep_free = ref [] in
  let menus = ref [] in
  let slot_pos = ref 0 in
  for menu_index = 0 to n_menus - 1 do
    if !slot_pos < n then begin
      let subsystem = subsystems.(menu_index) in
      let count = min per_menu (n - !slot_pos) in
      let previous = Array.make count "" in
      let n_previous = ref 0 in
      let items = ref [] in
      let pending_choice = ref [] in
      let flush_choice () =
        match !pending_choice with
        | [] -> ()
        | members ->
          let members = List.rev members in
          let default = match members with [] -> None | e :: _ -> Some e.Ast.name in
          items :=
            Ast.Choice
              { c_prompt = Printf.sprintf "%s mode" subsystem;
                c_default = default;
                c_depends = [];
                c_entries = members }
            :: !items;
          pending_choice := []
      in
      let in_choice = ref 0 in
      for _ = 1 to count do
        let slot = slots.(!slot_pos) in
        incr slot_pos;
        let entry = make_entry rng subsystem slot ~previous ~n_previous:!n_previous ~dep_free in
        (* Group ~2 % of bool options into exclusive choices of size 3. *)
        if slot.s_type = Ast.Bool && (!in_choice > 0 || Rng.bernoulli rng 0.02) then begin
          let member = { entry with Ast.depends = []; selects = []; defaults = [] } in
          pending_choice := member :: !pending_choice;
          if !in_choice = 0 then in_choice := 2
          else begin
            decr in_choice;
            if !in_choice = 0 then flush_choice ()
          end
        end
        else begin
          items := Ast.Config entry :: !items;
          if entry.Ast.depends = []
             && (slot.s_type = Ast.Bool || slot.s_type = Ast.Tristate)
             && entry.Ast.selects = []
          then dep_free := entry.Ast.name :: !dep_free;
          if slot.s_type = Ast.Bool || slot.s_type = Ast.Tristate then begin
            previous.(!n_previous) <- entry.Ast.name;
            incr n_previous
          end
        end
      done;
      flush_choice ();
      menus :=
        Ast.Menu
          { m_title = Printf.sprintf "%s subsystem" subsystem;
            m_depends = [];
            m_items = List.rev !items }
        :: !menus
    end
  done;
  List.rev !menus
