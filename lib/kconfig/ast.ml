type symbol_type = Bool | Tristate | String | Hex | Int

let symbol_type_to_string = function
  | Bool -> "bool"
  | Tristate -> "tristate"
  | String -> "string"
  | Hex -> "hex"
  | Int -> "int"

type expr =
  | Const of Tristate.t
  | Symbol of string
  | Eq of string * string
  | Neq of string * string
  | Not of expr
  | And of expr * expr
  | Or of expr * expr

type default_value =
  | Dv_tristate of Tristate.t
  | Dv_expr of expr
  | Dv_string of string
  | Dv_int of int

type entry = {
  name : string;
  sym_type : symbol_type;
  prompt : string option;
  defaults : (default_value * expr option) list;
  depends : expr list;
  selects : (string * expr option) list;
  range : (int * int) option;
  help : string option;
}

type item = Config of entry | Menu of menu | Choice of choice
and menu = { m_title : string; m_depends : expr list; m_items : item list }

and choice = {
  c_prompt : string;
  c_default : string option;
  c_depends : expr list;
  c_entries : entry list;
}

type tree = item list

let empty_entry name sym_type =
  { name; sym_type; prompt = None; defaults = []; depends = []; selects = []; range = None; help = None }

let rec iter_item f = function
  | Config e -> f e
  | Menu m -> List.iter (iter_item f) m.m_items
  | Choice c -> List.iter f c.c_entries

let iter_entries f tree = List.iter (iter_item f) tree

let fold_entries f init tree =
  let acc = ref init in
  iter_entries (fun e -> acc := f !acc e) tree;
  !acc

let entries tree = List.rev (fold_entries (fun acc e -> e :: acc) [] tree)

let find_entry tree name =
  let found = ref None in
  (try
     iter_entries
       (fun e -> if e.name = name then begin found := Some e; raise Exit end)
       tree
   with Exit -> ());
  !found

let choices tree =
  let rec collect acc = function
    | Config _ -> acc
    | Menu m -> List.fold_left collect acc m.m_items
    | Choice c -> c :: acc
  in
  List.rev (List.fold_left collect [] tree)

let rec pp_expr ppf = function
  | Const t -> Tristate.pp ppf t
  | Symbol s -> Format.pp_print_string ppf s
  | Eq (a, b) -> Format.fprintf ppf "%s = %s" a b
  | Neq (a, b) -> Format.fprintf ppf "%s != %s" a b
  | Not e -> Format.fprintf ppf "!(%a)" pp_expr e
  | And (a, b) -> Format.fprintf ppf "(%a && %a)" pp_expr a pp_expr b
  | Or (a, b) -> Format.fprintf ppf "(%a || %a)" pp_expr a pp_expr b

let expr_to_string e = Format.asprintf "%a" pp_expr e

(* ------------------------------------------------------------------ *)
(* Printing a tree back to Kconfig text                                *)
(* ------------------------------------------------------------------ *)

let print_default_value = function
  | Dv_tristate t -> Tristate.to_string t
  | Dv_expr e -> expr_to_string e
  | Dv_string s -> Printf.sprintf "%S" s
  | Dv_int i -> string_of_int i

let print_entry buf e =
  Buffer.add_string buf (Printf.sprintf "config %s\n" e.name);
  let prompt = match e.prompt with None -> "" | Some p -> Printf.sprintf " %S" p in
  Buffer.add_string buf (Printf.sprintf "\t%s%s\n" (symbol_type_to_string e.sym_type) prompt);
  List.iter
    (fun (v, cond) ->
      let suffix = match cond with None -> "" | Some c -> " if " ^ expr_to_string c in
      Buffer.add_string buf (Printf.sprintf "\tdefault %s%s\n" (print_default_value v) suffix))
    e.defaults;
  List.iter
    (fun d -> Buffer.add_string buf (Printf.sprintf "\tdepends on %s\n" (expr_to_string d)))
    e.depends;
  List.iter
    (fun (s, cond) ->
      let suffix = match cond with None -> "" | Some c -> " if " ^ expr_to_string c in
      Buffer.add_string buf (Printf.sprintf "\tselect %s%s\n" s suffix))
    e.selects;
  (match e.range with
   | None -> ()
   | Some (lo, hi) -> Buffer.add_string buf (Printf.sprintf "\trange %d %d\n" lo hi));
  (match e.help with
   | None -> ()
   | Some h ->
     Buffer.add_string buf "\thelp\n";
     String.split_on_char '\n' h
     |> List.iter (fun line -> Buffer.add_string buf (Printf.sprintf "\t  %s\n" line)));
  Buffer.add_char buf '\n'

let rec print_item buf = function
  | Config e -> print_entry buf e
  | Menu m ->
    Buffer.add_string buf (Printf.sprintf "menu %S\n" m.m_title);
    List.iter
      (fun d -> Buffer.add_string buf (Printf.sprintf "\tdepends on %s\n" (expr_to_string d)))
      m.m_depends;
    Buffer.add_char buf '\n';
    List.iter (print_item buf) m.m_items;
    Buffer.add_string buf "endmenu\n\n"
  | Choice c ->
    Buffer.add_string buf "choice\n";
    Buffer.add_string buf (Printf.sprintf "\tprompt %S\n" c.c_prompt);
    (match c.c_default with
     | None -> ()
     | Some d -> Buffer.add_string buf (Printf.sprintf "\tdefault %s\n" d));
    List.iter
      (fun d -> Buffer.add_string buf (Printf.sprintf "\tdepends on %s\n" (expr_to_string d)))
      c.c_depends;
    Buffer.add_char buf '\n';
    List.iter (print_entry buf) c.c_entries;
    Buffer.add_string buf "endchoice\n\n"

let print_tree tree =
  let buf = Buffer.create 4096 in
  List.iter (print_item buf) tree;
  Buffer.contents buf
