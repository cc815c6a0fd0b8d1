type value = V_tristate of Tristate.t | V_string of string | V_int of int

let value_to_string = function
  | V_tristate t -> Tristate.to_string t
  | V_string s -> s
  | V_int i -> string_of_int i

type t = { tree : Ast.tree; values : (string, value) Hashtbl.t }

let create tree = { tree; values = Hashtbl.create 256 }
let copy t = { tree = t.tree; values = Hashtbl.copy t.values }
let set t name v = Hashtbl.replace t.values name v
let get t name = Hashtbl.find_opt t.values name

let tristate_of t name =
  match get t name with
  | None -> Tristate.N
  | Some (V_tristate x) -> x
  | Some (V_string _) | Some (V_int _) -> Tristate.Y

(* Resolve an Eq/Neq operand: a known symbol reads as its value, anything
   else is a literal. *)
let operand_string t s =
  match get t s with
  | Some v -> value_to_string v
  | None -> if Ast.find_entry t.tree s <> None then "n" else s

let rec eval_expr t = function
  | Ast.Const c -> c
  | Ast.Symbol s -> tristate_of t s
  | Ast.Eq (a, b) ->
    if String.equal (operand_string t a) (operand_string t b) then Tristate.Y else Tristate.N
  | Ast.Neq (a, b) ->
    if String.equal (operand_string t a) (operand_string t b) then Tristate.N else Tristate.Y
  | Ast.Not e -> Tristate.bnot (eval_expr t e)
  | Ast.And (a, b) -> Tristate.band (eval_expr t a) (eval_expr t b)
  | Ast.Or (a, b) -> Tristate.bor (eval_expr t a) (eval_expr t b)

let dependency_limit t entry =
  List.fold_left (fun acc e -> Tristate.band acc (eval_expr t e)) Tristate.Y entry.Ast.depends

(* ------------------------------------------------------------------ *)
(* Defaults                                                            *)
(* ------------------------------------------------------------------ *)

let first_applicable_default t entry =
  List.find_opt
    (fun (_, cond) ->
      match cond with None -> true | Some c -> eval_expr t c <> Tristate.N)
    entry.Ast.defaults

let default_value_for t entry =
  let limit = dependency_limit t entry in
  match entry.Ast.sym_type with
  | Ast.Bool | Ast.Tristate ->
    let base =
      match first_applicable_default t entry with
      | Some (Ast.Dv_tristate v, _) -> v
      | Some (Ast.Dv_expr e, _) -> eval_expr t e
      | Some (Ast.Dv_int i, _) -> if i = 0 then Tristate.N else Tristate.Y
      | Some (Ast.Dv_string _, _) | None -> Tristate.N
    in
    let v = Tristate.min base limit in
    let v = if entry.Ast.sym_type = Ast.Bool && v = Tristate.M then Tristate.N else v in
    V_tristate v
  | Ast.Int | Ast.Hex ->
    let base =
      match first_applicable_default t entry with
      | Some (Ast.Dv_int i, _) -> i
      | Some (Ast.Dv_tristate v, _) -> Tristate.to_int v
      | Some (Ast.Dv_string s, _) -> Option.value ~default:0 (int_of_string_opt s)
      | Some (Ast.Dv_expr _, _) | None -> (
        match entry.Ast.range with Some (lo, _) -> lo | None -> 0)
    in
    let clamped =
      match entry.Ast.range with
      | None -> base
      | Some (lo, hi) -> Stdlib.min hi (Stdlib.max lo base)
    in
    V_int clamped
  | Ast.String ->
    let base =
      match first_applicable_default t entry with
      | Some (Ast.Dv_string s, _) -> s
      | Some (Ast.Dv_tristate v, _) -> Tristate.to_string v
      | Some (Ast.Dv_int i, _) -> string_of_int i
      | Some (Ast.Dv_expr _, _) | None -> ""
    in
    V_string base

let select_fixpoint_rounds = 16

let apply_selects t =
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds < select_fixpoint_rounds do
    changed := false;
    incr rounds;
    Ast.iter_entries
      (fun entry ->
        let v = tristate_of t entry.Ast.name in
        if v <> Tristate.N then
          List.iter
            (fun (selected, cond) ->
              let cond_value =
                match cond with None -> Tristate.Y | Some c -> eval_expr t c
              in
              let required = Tristate.min v cond_value in
              if required <> Tristate.N then begin
                match Ast.find_entry t.tree selected with
                | None -> ()
                | Some target_entry ->
                  let required =
                    if target_entry.Ast.sym_type = Ast.Bool && required = Tristate.M then
                      Tristate.Y
                    else required
                  in
                  let current = tristate_of t selected in
                  if Tristate.compare current required < 0 then begin
                    set t selected (V_tristate required);
                    changed := true
                  end
              end)
            entry.Ast.selects)
      t.tree
  done

let choice_members_assign t choice =
  let limit =
    List.fold_left (fun acc e -> Tristate.band acc (eval_expr t e)) Tristate.Y choice.Ast.c_depends
  in
  let pick =
    match choice.Ast.c_default with
    | Some d when List.exists (fun e -> e.Ast.name = d) choice.Ast.c_entries -> Some d
    | Some _ | None -> (
      match choice.Ast.c_entries with [] -> None | e :: _ -> Some e.Ast.name)
  in
  List.iter
    (fun e ->
      let v =
        if limit = Tristate.N then Tristate.N
        else if Some e.Ast.name = pick then Tristate.Y
        else Tristate.N
      in
      set t e.Ast.name (V_tristate v))
    choice.Ast.c_entries

let defaults tree =
  let t = create tree in
  (* Entries in document order so earlier symbols are visible to later
     defaults; choice members are then overwritten by the choice rule. *)
  Ast.iter_entries (fun entry -> set t entry.Ast.name (default_value_for t entry)) tree;
  List.iter (choice_members_assign t) (Ast.choices tree);
  apply_selects t;
  t

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

type violation =
  | Unknown_symbol of string
  | Type_mismatch of { symbol : string; expected : Ast.symbol_type; got : value }
  | Module_on_bool of string
  | Range_violation of { symbol : string; lo : int; hi : int; got : int }
  | Unsatisfied_dependency of { symbol : string; value : Tristate.t; limit : Tristate.t }
  | Unsatisfied_select of { selector : string; selected : string; required : Tristate.t }
  | Choice_violation of { prompt : string; enabled : string list }

let pp_violation ppf = function
  | Unknown_symbol s -> Format.fprintf ppf "unknown symbol %s" s
  | Type_mismatch { symbol; expected; got } ->
    Format.fprintf ppf "%s: expected %s value, got %s" symbol
      (Ast.symbol_type_to_string expected) (value_to_string got)
  | Module_on_bool s -> Format.fprintf ppf "%s: bool symbol set to m" s
  | Range_violation { symbol; lo; hi; got } ->
    Format.fprintf ppf "%s: %d outside range [%d, %d]" symbol got lo hi
  | Unsatisfied_dependency { symbol; value; limit } ->
    Format.fprintf ppf "%s: value %a exceeds dependency limit %a" symbol Tristate.pp value
      Tristate.pp limit
  | Unsatisfied_select { selector; selected; required } ->
    Format.fprintf ppf "%s selects %s (needs at least %a)" selector selected Tristate.pp required
  | Choice_violation { prompt; enabled } ->
    Format.fprintf ppf "choice %S: enabled members [%s]" prompt (String.concat "; " enabled)

let type_ok sym_type v =
  match (sym_type, v) with
  | (Ast.Bool | Ast.Tristate), V_tristate _ -> true
  | (Ast.Int | Ast.Hex), V_int _ -> true
  | Ast.String, V_string _ -> true
  | (Ast.Bool | Ast.Tristate | Ast.Int | Ast.Hex | Ast.String), _ -> false

let validate t =
  let violations = ref [] in
  let report v = violations := v :: !violations in
  let known = Hashtbl.create 256 in
  Ast.iter_entries (fun e -> Hashtbl.replace known e.Ast.name e) t.tree;
  (* Assigned symbols must be declared. *)
  Hashtbl.iter
    (fun name _ -> if not (Hashtbl.mem known name) then report (Unknown_symbol name))
    t.values;
  (* Per-entry checks. *)
  Ast.iter_entries
    (fun entry ->
      match get t entry.Ast.name with
      | None -> ()
      | Some v ->
        if not (type_ok entry.Ast.sym_type v) then
          report (Type_mismatch { symbol = entry.Ast.name; expected = entry.Ast.sym_type; got = v })
        else begin
          (match (entry.Ast.sym_type, v) with
           | Ast.Bool, V_tristate Tristate.M -> report (Module_on_bool entry.Ast.name)
           | (Ast.Int | Ast.Hex), V_int i -> (
             match entry.Ast.range with
             | Some (lo, hi) when i < lo || i > hi ->
               report (Range_violation { symbol = entry.Ast.name; lo; hi; got = i })
             | Some _ | None -> ())
           | (Ast.Bool | Ast.Tristate | Ast.Int | Ast.Hex | Ast.String), _ -> ());
          (* Dependency limit applies to enabled bool/tristate symbols. *)
          match v with
          | V_tristate tv when tv <> Tristate.N ->
            let limit = dependency_limit t entry in
            if Tristate.compare tv limit > 0 then
              report (Unsatisfied_dependency { symbol = entry.Ast.name; value = tv; limit })
          | V_tristate _ | V_string _ | V_int _ -> ()
        end)
    t.tree;
  (* Selects. *)
  Ast.iter_entries
    (fun entry ->
      let v = tristate_of t entry.Ast.name in
      if v <> Tristate.N then
        List.iter
          (fun (selected, cond) ->
            let cond_value = match cond with None -> Tristate.Y | Some c -> eval_expr t c in
            let required = Tristate.min v cond_value in
            match Hashtbl.find_opt known selected with
            | None -> ()
            | Some target ->
              let required =
                if target.Ast.sym_type = Ast.Bool && required = Tristate.M then Tristate.Y
                else required
              in
              if required <> Tristate.N && Tristate.compare (tristate_of t selected) required < 0
              then
                report (Unsatisfied_select { selector = entry.Ast.name; selected; required }))
          entry.Ast.selects)
    t.tree;
  (* Choices: at most one enabled member; exactly one when the choice is
     visible (its dependencies hold). *)
  List.iter
    (fun choice ->
      let limit =
        List.fold_left
          (fun acc e -> Tristate.band acc (eval_expr t e))
          Tristate.Y choice.Ast.c_depends
      in
      let enabled =
        List.filter_map
          (fun e -> if tristate_of t e.Ast.name <> Tristate.N then Some e.Ast.name else None)
          choice.Ast.c_entries
      in
      let bad =
        match enabled with
        | [] -> limit <> Tristate.N && choice.Ast.c_entries <> []
        | [ _ ] -> false
        | _ :: _ :: _ -> true
      in
      if bad then report (Choice_violation { prompt = choice.Ast.c_prompt; enabled }))
    (Ast.choices t.tree);
  List.rev !violations

let is_valid t = validate t = []
