open Wayfinder_kconfig

(* ------------------------------------------------------------------ *)
(* Tristate                                                            *)
(* ------------------------------------------------------------------ *)

let tri = Alcotest.testable Tristate.pp ( = )

let test_tristate_order () =
  Alcotest.(check bool) "n <= m" true Tristate.(N <= M);
  Alcotest.(check bool) "m <= y" true Tristate.(M <= Y);
  Alcotest.(check bool) "y <= n false" false Tristate.(Y <= N)

let test_tristate_logic () =
  Alcotest.check tri "and = min" Tristate.M (Tristate.band Tristate.Y Tristate.M);
  Alcotest.check tri "or = max" Tristate.Y (Tristate.bor Tristate.N Tristate.Y);
  Alcotest.check tri "not n" Tristate.Y (Tristate.bnot Tristate.N);
  Alcotest.check tri "not m" Tristate.M (Tristate.bnot Tristate.M);
  Alcotest.check tri "not y" Tristate.N (Tristate.bnot Tristate.Y)

let test_tristate_strings () =
  List.iter
    (fun t ->
      Alcotest.(check (option tri)) "roundtrip" (Some t) (Tristate.of_string (Tristate.to_string t)))
    [ Tristate.N; Tristate.M; Tristate.Y ];
  Alcotest.(check (option tri)) "garbage" None (Tristate.of_string "x")

(* ------------------------------------------------------------------ *)
(* Expression parsing                                                  *)
(* ------------------------------------------------------------------ *)

let test_expr_atoms () =
  Alcotest.(check bool) "symbol" true (Parser.parse_expr "FOO" = Ast.Symbol "FOO");
  Alcotest.(check bool) "const y" true (Parser.parse_expr "y" = Ast.Const Tristate.Y);
  Alcotest.(check bool) "const n" true (Parser.parse_expr "n" = Ast.Const Tristate.N)

let test_expr_precedence () =
  (* || binds looser than && *)
  let e = Parser.parse_expr "A || B && C" in
  Alcotest.(check bool) "or of and" true
    (e = Ast.Or (Ast.Symbol "A", Ast.And (Ast.Symbol "B", Ast.Symbol "C")))

let test_expr_parens_and_not () =
  let e = Parser.parse_expr "!(A || B) && C" in
  Alcotest.(check bool) "structure" true
    (e = Ast.And (Ast.Not (Ast.Or (Ast.Symbol "A", Ast.Symbol "B")), Ast.Symbol "C"))

let test_expr_comparisons () =
  Alcotest.(check bool) "eq" true (Parser.parse_expr "FOO = y" = Ast.Eq ("FOO", "y"));
  Alcotest.(check bool) "neq" true (Parser.parse_expr "FOO != BAR" = Ast.Neq ("FOO", "BAR"))

let test_expr_errors () =
  let expect s =
    match Parser.parse_expr s with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "expected parse error for %S" s)
  in
  expect "A &&";
  expect "(A";
  expect "A ? B";
  expect ""

(* ------------------------------------------------------------------ *)
(* Kconfig parsing                                                     *)
(* ------------------------------------------------------------------ *)

let sample_kconfig =
  {|
# A miniature Kconfig file.
menu "Networking"

config NET
	bool "Networking support"
	default y
	help
	  Enable the network stack.
	  Say Y unless you know better.

config NET_FASTPATH
	tristate "Fast path"
	depends on NET
	default m

config NET_BACKLOG
	int "Socket backlog"
	depends on NET
	range 1 65536
	default 128

config NET_VENDOR
	string "Vendor tag"
	default "generic"

endmenu

config PCI_BASE
	hex "PCI base address"
	range 0 65535
	default 4096

config CRYPTO_HW
	bool "Hardware crypto"
	select NET
	default n

choice
	prompt "Scheduler"
	default SCHED_FAIR

config SCHED_FAIR
	bool "Fair"

config SCHED_RT
	bool "Real-time"

config SCHED_BATCH
	bool "Batch"

endchoice
|}

let parsed () = Parser.parse sample_kconfig

let test_parse_structure () =
  let tree = parsed () in
  Alcotest.(check int) "entry count" 9 (List.length (Ast.entries tree));
  Alcotest.(check int) "choice count" 1 (List.length (Ast.choices tree));
  match Ast.find_entry tree "NET_BACKLOG" with
  | None -> Alcotest.fail "NET_BACKLOG missing"
  | Some e ->
    Alcotest.(check bool) "is int" true (e.Ast.sym_type = Ast.Int);
    Alcotest.(check bool) "range" true (e.Ast.range = Some (1, 65536));
    Alcotest.(check int) "one depends" 1 (List.length e.Ast.depends)

let test_parse_help_block () =
  let tree = parsed () in
  match Ast.find_entry tree "NET" with
  | None -> Alcotest.fail "NET missing"
  | Some e -> (
    match e.Ast.help with
    | None -> Alcotest.fail "expected help"
    | Some h ->
      Alcotest.(check bool) "first line kept" true
        (String.length h >= 24 && String.sub h 0 24 = "Enable the network stack"))

let test_parse_select_and_defaults () =
  let tree = parsed () in
  (match Ast.find_entry tree "CRYPTO_HW" with
   | Some e -> Alcotest.(check bool) "select NET" true (e.Ast.selects = [ ("NET", None) ])
   | None -> Alcotest.fail "CRYPTO_HW missing");
  match Ast.find_entry tree "NET_VENDOR" with
  | Some e ->
    Alcotest.(check bool) "string default" true
      (e.Ast.defaults = [ (Ast.Dv_string "generic", None) ])
  | None -> Alcotest.fail "NET_VENDOR missing"

let test_parse_errors () =
  let expect s =
    match Parser.parse s with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "expected error for %S" s)
  in
  expect "config FOO\n";
  (* no type *)
  expect "config FOO\n\tbool\n\trange 5 1\n";
  (* inverted range *)
  expect "garbage line\n";
  expect "choice\nconfig A\n\tbool\n"
  (* unterminated choice *)

let test_print_parse_roundtrip () =
  let tree = parsed () in
  let printed = Ast.print_tree tree in
  let reparsed = Parser.parse printed in
  Alcotest.(check int) "entry count preserved"
    (List.length (Ast.entries tree))
    (List.length (Ast.entries reparsed));
  List.iter2
    (fun a b ->
      Alcotest.(check string) "name" a.Ast.name b.Ast.name;
      Alcotest.(check bool) "type" true (a.Ast.sym_type = b.Ast.sym_type);
      Alcotest.(check bool) "range" true (a.Ast.range = b.Ast.range);
      Alcotest.(check int) "depends count" (List.length a.Ast.depends) (List.length b.Ast.depends))
    (Ast.entries tree) (Ast.entries reparsed)

(* ------------------------------------------------------------------ *)
(* Config semantics                                                    *)
(* ------------------------------------------------------------------ *)

let test_defaults () =
  let tree = parsed () in
  let c = Config.defaults tree in
  Alcotest.check tri "NET default y" Tristate.Y (Config.tristate_of c "NET");
  Alcotest.(check bool) "backlog default" true
    (Config.get c "NET_BACKLOG" = Some (Config.V_int 128));
  Alcotest.(check bool) "vendor default" true
    (Config.get c "NET_VENDOR" = Some (Config.V_string "generic"));
  Alcotest.check tri "choice default selected" Tristate.Y (Config.tristate_of c "SCHED_FAIR");
  Alcotest.check tri "other members off" Tristate.N (Config.tristate_of c "SCHED_RT");
  Alcotest.(check bool) "defaults validate" true (Config.is_valid c)

let test_dependency_limit_cuts_default () =
  let tree =
    Parser.parse "config A\n\tbool\n\tdefault n\nconfig B\n\tbool \"b\"\n\tdepends on A\n\tdefault y\n"
  in
  let c = Config.defaults tree in
  Alcotest.check tri "B limited by A=n" Tristate.N (Config.tristate_of c "B")

let test_eval_expr () =
  let tree = parsed () in
  let c = Config.defaults tree in
  Alcotest.check tri "NET && !CRYPTO_HW" Tristate.Y
    (Config.eval_expr c (Parser.parse_expr "NET && !CRYPTO_HW"));
  Alcotest.check tri "eq against value" Tristate.Y
    (Config.eval_expr c (Parser.parse_expr "NET_VENDOR = generic"));
  Alcotest.check tri "neq" Tristate.N
    (Config.eval_expr c (Parser.parse_expr "NET_VENDOR != generic"))

let test_validate_detects_violations () =
  let tree = parsed () in
  let c = Config.defaults tree in
  (* Unknown symbol *)
  let c1 = Config.copy c in
  Config.set c1 "NO_SUCH" (Config.V_tristate Tristate.Y);
  Alcotest.(check bool) "unknown symbol" false (Config.is_valid c1);
  (* Range violation *)
  let c2 = Config.copy c in
  Config.set c2 "NET_BACKLOG" (Config.V_int 0);
  Alcotest.(check bool) "range violation" false (Config.is_valid c2);
  (* Dependency violation *)
  let c3 = Config.copy c in
  Config.set c3 "NET" (Config.V_tristate Tristate.N);
  Config.set c3 "CRYPTO_HW" (Config.V_tristate Tristate.N);
  Config.set c3 "NET_FASTPATH" (Config.V_tristate Tristate.M);
  Alcotest.(check bool) "dependency violation" false (Config.is_valid c3);
  (* Choice violation *)
  let c4 = Config.copy c in
  Config.set c4 "SCHED_RT" (Config.V_tristate Tristate.Y);
  Alcotest.(check bool) "choice violation" false (Config.is_valid c4);
  (* Module on bool *)
  let c5 = Config.copy c in
  Config.set c5 "CRYPTO_HW" (Config.V_tristate Tristate.M);
  Alcotest.(check bool) "module on bool" false (Config.is_valid c5);
  (* Select violation *)
  let c6 = Config.copy c in
  Config.set c6 "CRYPTO_HW" (Config.V_tristate Tristate.Y);
  Config.set c6 "NET" (Config.V_tristate Tristate.N);
  Config.set c6 "NET_FASTPATH" (Config.V_tristate Tristate.N);
  Config.set c6 "NET_BACKLOG" (Config.V_int 1);
  Alcotest.(check bool) "select violation" false (Config.is_valid c6)

let test_apply_selects () =
  let tree = parsed () in
  let c = Config.defaults tree in
  Config.set c "NET" (Config.V_tristate Tristate.N);
  Config.set c "CRYPTO_HW" (Config.V_tristate Tristate.Y);
  Config.apply_selects c;
  Alcotest.check tri "NET re-selected" Tristate.Y (Config.tristate_of c "NET")

(* ------------------------------------------------------------------ *)
(* Synthetic generation                                                *)
(* ------------------------------------------------------------------ *)

let small_profile =
  { Synthetic.version = "test"; n_bool = 120; n_tristate = 80; n_string = 6; n_hex = 4; n_int = 40;
    seed = 99 }

let test_synthetic_counts_exact () =
  let tree = Synthetic.generate small_profile in
  let c = Space.census tree in
  Alcotest.(check int) "bool" 120 c.Space.bool_count;
  Alcotest.(check int) "tristate" 80 c.Space.tristate_count;
  Alcotest.(check int) "string" 6 c.Space.string_count;
  Alcotest.(check int) "hex" 4 c.Space.hex_count;
  Alcotest.(check int) "int" 40 c.Space.int_count

let test_synthetic_deterministic () =
  let t1 = Synthetic.generate small_profile and t2 = Synthetic.generate small_profile in
  Alcotest.(check string) "same printed tree" (Ast.print_tree t1) (Ast.print_tree t2)

let test_synthetic_defaults_valid () =
  let tree = Synthetic.generate small_profile in
  match Config.validate (Config.defaults tree) with
  | [] -> ()
  | violations ->
    Alcotest.failf "invalid synthetic defaults: %s"
      (String.concat "; "
         (List.map (Format.asprintf "%a" Config.pp_violation)
            (List.filteri (fun i _ -> i < 5) violations)))

let test_synthetic_roundtrip () =
  let tree = Synthetic.generate small_profile in
  let reparsed = Parser.parse (Ast.print_tree tree) in
  Alcotest.(check int) "entries preserved"
    (List.length (Ast.entries tree))
    (List.length (Ast.entries reparsed));
  let c1 = Space.census tree and c2 = Space.census reparsed in
  Alcotest.(check int) "census equal" (Space.census_total c1) (Space.census_total c2)

let test_synthetic_profiles_monotonic () =
  let totals = List.map Synthetic.total Synthetic.linux_profiles in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "figure 1 growth" true (increasing totals);
  Alcotest.(check int) "6.0 matches table 1" 21272 (Synthetic.total Synthetic.linux_6_0)

let test_space_descriptors () =
  let tree = parsed () in
  let ds = Space.descriptors tree in
  Alcotest.(check int) "one per entry" (List.length (Ast.entries tree)) (List.length ds);
  let backlog = List.find (fun d -> d.Space.d_name = "NET_BACKLOG") ds in
  Alcotest.(check bool) "range extracted" true (backlog.Space.d_range = Some (1, 65536));
  Alcotest.(check bool) "default extracted" true (backlog.Space.d_default = Config.V_int 128);
  Alcotest.(check bool) "depends flag" true backlog.Space.d_has_depends;
  let fair = List.find (fun d -> d.Space.d_name = "SCHED_FAIR") ds in
  Alcotest.(check bool) "choice flag" true fair.Space.d_in_choice

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_expr_eval_monotone_not =
  QCheck2.Test.make ~name:"double negation preserves evaluation" ~count:100
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let profile =
        { Synthetic.version = "prop"; n_bool = 20; n_tristate = 10; n_string = 1; n_hex = 1;
          n_int = 5; seed }
      in
      let tree = Synthetic.generate profile in
      let c = Config.defaults tree in
      List.for_all
        (fun e ->
          let x = Ast.Symbol e.Ast.name in
          Config.eval_expr c (Ast.Not (Ast.Not x)) = Config.eval_expr c x)
        (Ast.entries tree))

let prop_tristate_de_morgan =
  QCheck2.Test.make ~name:"tristate De Morgan" ~count:100
    QCheck2.Gen.(pair (int_range 0 2) (int_range 0 2))
    (fun (a, b) ->
      let a = Tristate.of_int a and b = Tristate.of_int b in
      Tristate.bnot (Tristate.band a b) = Tristate.bor (Tristate.bnot a) (Tristate.bnot b))

let () =
  Alcotest.run "kconfig"
    [ ( "tristate",
        [ Alcotest.test_case "ordering" `Quick test_tristate_order;
          Alcotest.test_case "logic" `Quick test_tristate_logic;
          Alcotest.test_case "strings" `Quick test_tristate_strings ] );
      ( "expr",
        [ Alcotest.test_case "atoms" `Quick test_expr_atoms;
          Alcotest.test_case "precedence" `Quick test_expr_precedence;
          Alcotest.test_case "parens and not" `Quick test_expr_parens_and_not;
          Alcotest.test_case "comparisons" `Quick test_expr_comparisons;
          Alcotest.test_case "errors" `Quick test_expr_errors ] );
      ( "parser",
        [ Alcotest.test_case "structure" `Quick test_parse_structure;
          Alcotest.test_case "help block" `Quick test_parse_help_block;
          Alcotest.test_case "select and defaults" `Quick test_parse_select_and_defaults;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "print/parse roundtrip" `Quick test_print_parse_roundtrip ] );
      ( "config",
        [ Alcotest.test_case "defaults" `Quick test_defaults;
          Alcotest.test_case "dependency limits defaults" `Quick test_dependency_limit_cuts_default;
          Alcotest.test_case "expression evaluation" `Quick test_eval_expr;
          Alcotest.test_case "validation catches violations" `Quick test_validate_detects_violations;
          Alcotest.test_case "apply selects" `Quick test_apply_selects ] );
      ( "synthetic",
        [ Alcotest.test_case "exact counts" `Quick test_synthetic_counts_exact;
          Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
          Alcotest.test_case "defaults valid" `Quick test_synthetic_defaults_valid;
          Alcotest.test_case "print/parse roundtrip" `Quick test_synthetic_roundtrip;
          Alcotest.test_case "profiles monotone, 6.0 exact" `Quick test_synthetic_profiles_monotonic ] );
      ( "space", [ Alcotest.test_case "descriptors" `Quick test_space_descriptors ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_expr_eval_monotone_not; prop_tristate_de_morgan ] ) ]
