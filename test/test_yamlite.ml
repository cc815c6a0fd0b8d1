open Wayfinder_yamlite

let rec yaml_equal a b =
  match (a, b) with
  | Yamlite.Null, Yamlite.Null -> true
  | Yamlite.Bool x, Yamlite.Bool y -> x = y
  | Yamlite.Int x, Yamlite.Int y -> x = y
  | Yamlite.Float x, Yamlite.Float y -> x = y || (Float.is_nan x && Float.is_nan y)
  | Yamlite.String x, Yamlite.String y -> x = y
  | Yamlite.List xs, Yamlite.List ys ->
    List.length xs = List.length ys && List.for_all2 yaml_equal xs ys
  | Yamlite.Map xs, Yamlite.Map ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && yaml_equal v1 v2) xs ys
  | _, _ -> false

let yaml = Alcotest.testable Yamlite.pp yaml_equal

let test_scalars () =
  Alcotest.check yaml "null" Yamlite.Null (Yamlite.scalar_of_string "null");
  Alcotest.check yaml "tilde" Yamlite.Null (Yamlite.scalar_of_string "~");
  Alcotest.check yaml "true" (Yamlite.Bool true) (Yamlite.scalar_of_string "true");
  Alcotest.check yaml "yes" (Yamlite.Bool true) (Yamlite.scalar_of_string "yes");
  Alcotest.check yaml "false" (Yamlite.Bool false) (Yamlite.scalar_of_string "False");
  Alcotest.check yaml "int" (Yamlite.Int 42) (Yamlite.scalar_of_string "42");
  Alcotest.check yaml "negative int" (Yamlite.Int (-7)) (Yamlite.scalar_of_string "-7");
  Alcotest.check yaml "hex" (Yamlite.Int 255) (Yamlite.scalar_of_string "0xff");
  Alcotest.check yaml "float" (Yamlite.Float 3.14) (Yamlite.scalar_of_string "3.14");
  Alcotest.check yaml "exponent" (Yamlite.Float 1000.) (Yamlite.scalar_of_string "1e3");
  Alcotest.check yaml "bare string" (Yamlite.String "hello") (Yamlite.scalar_of_string "hello");
  Alcotest.check yaml "quoted number stays string" (Yamlite.String "42")
    (Yamlite.scalar_of_string "\"42\"");
  Alcotest.check yaml "single quoted" (Yamlite.String "a b") (Yamlite.scalar_of_string "'a b'")

let test_simple_mapping () =
  let doc = Yamlite.parse "name: nginx\niterations: 250\nenabled: true\n" in
  Alcotest.check yaml "name" (Yamlite.String "nginx") (Yamlite.find doc "name");
  Alcotest.check yaml "iterations" (Yamlite.Int 250) (Yamlite.find doc "iterations");
  Alcotest.check yaml "enabled" (Yamlite.Bool true) (Yamlite.find doc "enabled")

let test_nested_mapping () =
  let doc =
    Yamlite.parse
      "os:\n  name: linux\n  version: \"4.19\"\nmetric:\n  kind: throughput\n  maximize: true\n"
  in
  let os = Yamlite.find doc "os" in
  Alcotest.check yaml "os name" (Yamlite.String "linux") (Yamlite.find os "name");
  Alcotest.check yaml "version string" (Yamlite.String "4.19") (Yamlite.find os "version");
  Alcotest.check yaml "maximize" (Yamlite.Bool true)
    (Yamlite.find (Yamlite.find doc "metric") "maximize")

let test_sequences () =
  let doc = Yamlite.parse "apps:\n  - nginx\n  - redis\n  - sqlite\n" in
  Alcotest.check yaml "items"
    (Yamlite.List [ Yamlite.String "nginx"; Yamlite.String "redis"; Yamlite.String "sqlite" ])
    (Yamlite.find doc "apps")

let test_sequence_of_mappings () =
  let doc =
    Yamlite.parse
      "params:\n  - name: somaxconn\n    type: int\n    default: 128\n  - name: printk\n    type: bool\n"
  in
  match Yamlite.find doc "params" with
  | Yamlite.List [ p1; p2 ] ->
    Alcotest.check yaml "p1 name" (Yamlite.String "somaxconn") (Yamlite.find p1 "name");
    Alcotest.check yaml "p1 default" (Yamlite.Int 128) (Yamlite.find p1 "default");
    Alcotest.check yaml "p2 type" (Yamlite.String "bool") (Yamlite.find p2 "type")
  | _ -> Alcotest.fail "expected two params"

let test_flow_sequences () =
  let doc = Yamlite.parse "values: [1, 2, 3]\nnames: [a, \"b c\", d]\nnested: [[1, 2], [3]]\n" in
  Alcotest.check yaml "ints"
    (Yamlite.List [ Yamlite.Int 1; Yamlite.Int 2; Yamlite.Int 3 ])
    (Yamlite.find doc "values");
  Alcotest.check yaml "strings"
    (Yamlite.List [ Yamlite.String "a"; Yamlite.String "b c"; Yamlite.String "d" ])
    (Yamlite.find doc "names");
  Alcotest.check yaml "nested"
    (Yamlite.List
       [ Yamlite.List [ Yamlite.Int 1; Yamlite.Int 2 ]; Yamlite.List [ Yamlite.Int 3 ] ])
    (Yamlite.find doc "nested")

let test_comments_and_blanks () =
  let doc = Yamlite.parse "# header comment\n\nkey: value # trailing\n\nother: 2\n# footer\n" in
  Alcotest.check yaml "key" (Yamlite.String "value") (Yamlite.find doc "key");
  Alcotest.check yaml "other" (Yamlite.Int 2) (Yamlite.find doc "other")

let test_hash_inside_quotes () =
  let doc = Yamlite.parse "key: \"a # b\"\n" in
  Alcotest.check yaml "kept" (Yamlite.String "a # b") (Yamlite.find doc "key")

let test_colon_in_value () =
  let doc = Yamlite.parse "url: http://example.com:8080/x\n" in
  Alcotest.check yaml "url untouched" (Yamlite.String "http://example.com:8080/x")
    (Yamlite.find doc "url")

let test_empty_document () = Alcotest.check yaml "empty" Yamlite.Null (Yamlite.parse "")

let test_null_value_key () =
  let doc = Yamlite.parse "a:\nb: 1\n" in
  Alcotest.check yaml "empty nested is null" Yamlite.Null (Yamlite.find doc "a");
  Alcotest.check yaml "sibling parses" (Yamlite.Int 1) (Yamlite.find doc "b")

let test_deep_nesting () =
  let doc = Yamlite.parse "a:\n  b:\n    c:\n      - d: 1\n        e: [2, 3]\n" in
  let c = Yamlite.find (Yamlite.find (Yamlite.find doc "a") "b") "c" in
  match c with
  | Yamlite.List [ item ] ->
    Alcotest.check yaml "d" (Yamlite.Int 1) (Yamlite.find item "d");
    Alcotest.check yaml "e" (Yamlite.List [ Yamlite.Int 2; Yamlite.Int 3 ]) (Yamlite.find item "e")
  | _ -> Alcotest.fail "expected singleton list"

let test_parse_errors () =
  let expect_error text =
    match Yamlite.parse text with
    | exception Yamlite.Parse_error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "expected parse error for %S" text)
  in
  expect_error "  indented: first\n";
  expect_error "key: [1, 2\n";
  expect_error "just a scalar line\n";
  expect_error "a: 1\n  dangling: 2\n"

let test_error_line_number () =
  match Yamlite.parse "ok: 1\nbroken [\n" with
  | exception Yamlite.Parse_error { line; _ } -> Alcotest.(check int) "line" 2 line
  | _ -> Alcotest.fail "expected parse error"

let test_accessors () =
  let doc = Yamlite.parse "a: 1\nb: 2.5\n" in
  Alcotest.(check bool) "find_opt absent" true (Yamlite.find_opt doc "z" = None);
  Alcotest.check_raises "find on scalar"
    (Invalid_argument "Yamlite.find: expected map, got int") (fun () ->
      ignore (Yamlite.find (Yamlite.Int 3) "x"))

let test_roundtrip_handwritten () =
  let v =
    Yamlite.Map
      [ ("name", Yamlite.String "job");
        ("count", Yamlite.Int 3);
        ("rate", Yamlite.Float 0.5);
        ("flags", Yamlite.List [ Yamlite.Bool true; Yamlite.Bool false ]);
        ( "params",
          Yamlite.List
            [ Yamlite.Map [ ("name", Yamlite.String "x"); ("default", Yamlite.Int 1) ];
              Yamlite.Map [ ("name", Yamlite.String "weird: key"); ("default", Yamlite.Null) ] ] );
        ("empty_list", Yamlite.List []);
        ("nested", Yamlite.Map [ ("a", Yamlite.Map [ ("b", Yamlite.Int 9) ]) ]) ]
  in
  Alcotest.check yaml "roundtrip" v (Yamlite.parse (Yamlite.to_string v))

(* Property: generated documents survive a print/parse roundtrip. *)
let scalar_gen =
  QCheck2.Gen.(
    oneof
      [ return Yamlite.Null;
        map (fun b -> Yamlite.Bool b) bool;
        map (fun i -> Yamlite.Int i) (int_range (-1000000) 1000000);
        map (fun f -> Yamlite.Float f) (float_range (-1e6) 1e6);
        map (fun s -> Yamlite.String s)
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 12)) ])

let key_gen = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 8))

let rec value_gen depth =
  let open QCheck2.Gen in
  if depth = 0 then scalar_gen
  else
    frequency
      [ (3, scalar_gen);
        (1, map (fun l -> Yamlite.List l) (list_size (int_range 0 4) (value_gen (depth - 1))));
        ( 1,
          map
            (fun kvs ->
              (* Deduplicate keys: duplicate keys do not survive find-based
                 comparison. *)
              let seen = Hashtbl.create 8 in
              Yamlite.Map
                (List.filter
                   (fun (k, _) ->
                     if Hashtbl.mem seen k then false
                     else begin
                       Hashtbl.add seen k ();
                       true
                     end)
                   kvs))
            (list_size (int_range 1 4) (pair key_gen (value_gen (depth - 1)))) ) ]

let doc_gen =
  QCheck2.Gen.(
    map
      (fun kvs ->
        let seen = Hashtbl.create 8 in
        Yamlite.Map
          (List.filter
             (fun (k, _) ->
               if Hashtbl.mem seen k then false
               else begin
                 Hashtbl.add seen k ();
                 true
               end)
             kvs))
      (list_size (int_range 1 6) (pair key_gen (value_gen 3))))

let prop_roundtrip =
  QCheck2.Test.make ~name:"print/parse roundtrip" ~count:200 doc_gen (fun v ->
      yaml_equal v (Yamlite.parse (Yamlite.to_string v)))

(* ------------------------------------------------------------------ *)
(* Flow sequences against the parser that re-split every level         *)
(* ------------------------------------------------------------------ *)

(* Flow text: a printed random nested list (scalars, quoted items holding
   brackets and commas, empty items, stray quotes) or raw text over the
   flow alphabet, after up to three one-character edits, so brackets and
   quotes also go unbalanced.  It holds no '#' or newline, which the line
   scanner would cut at, and starts with '['. *)
let flow_gen =
  let open QCheck2.Gen in
  let scalar =
    oneofl
      [ "1"; "-2"; "0x1f"; "2.5"; "a"; "b c"; "\"q, [x]\""; "'s]'"; ""; " "; "null"; "yes"; "nan";
        "[]"; "'"; "\""; "a: b" ]
  in
  let rec tree depth =
    if depth = 0 then scalar
    else
      frequency
        [ (2, scalar);
          ( 1,
            map
              (fun items -> "[" ^ String.concat "," items ^ "]")
              (list_size (int_range 0 4) (tree (depth - 1))) ) ]
  in
  let printed =
    map (fun items -> "[" ^ String.concat ", " items ^ "]") (list_size (int_range 0 5) (tree 4))
  in
  let raw =
    map
      (fun cs -> "[" ^ String.of_seq (List.to_seq cs) ^ "]")
      (list_size (int_range 0 30) (oneofl [ '['; ']'; ','; ' '; '"'; '\''; 'a'; '1'; '-'; ':' ]))
  in
  let edit s =
    let* pos = int_bound (String.length s) in
    let* c = oneofl [ '['; ']'; ','; '"'; '\''; ' ' ] in
    let* drop = bool in
    let n = String.length s in
    return
      (if drop && pos < n then String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)
       else String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (n - pos))
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  let* s = oneof [ printed; raw ] in
  let* k = int_range 0 3 in
  let* s = edits k s in
  return (if String.length s > 0 && s.[0] = '[' then s else "[" ^ s)

let outcome f =
  match f () with
  | v -> Ok v
  | exception Yamlite.Parse_error { line; message } -> Error (line, message)

(* The one-pass flow parser gives the old parser's value, or its
   [Parse_error] with the same line and message. *)
let prop_flow_matches_oracle =
  QCheck2.Test.make ~name:"flow sequences parse as the re-splitting parser did" ~count:3000
    ~print:QCheck2.Print.string flow_gen (fun flow ->
      let got = outcome (fun () -> Yamlite.parse ("a: 1\nk: " ^ flow ^ "\n")) in
      let expected =
        outcome (fun () ->
            Yamlite.Map [ ("a", Yamlite.Int 1); ("k", Oracle.Yamlite_flow.parse_flow 2 flow) ])
      in
      match (got, expected) with
      | Ok v, Ok v' -> yaml_equal v v'
      | Error e, Error e' -> e = e'
      | Ok _, Error _ | Error _, Ok _ -> false)

(* Words a call allocates: the minor heap's, plus the blocks allocated
   straight in the major heap (anything over 256 words), which
   [Gc.minor_words] alone misses. *)
let allocated_words f =
  let minor = Gc.minor_words () and _, promoted, major = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let _, promoted', major' = Gc.counters () in
  Gc.minor_words () -. minor +. (major' -. major -. (promoted' -. promoted))

(* A flow sequence nested d deep parses in allocation linear in d: at
   depth 2s the parse allocates at most 2.5 times what it allocates at
   depth s (2.0 measured).  The parser that copied and re-split every
   level's body allocated 3.9 times as much per doubling, 0.65 M words
   at depth 1,000 and 38 M at 8,000, most of it in copies too large for
   the minor heap. *)
let test_flow_nesting_linear () =
  let words d =
    let text = "k: " ^ String.make d '[' ^ "x" ^ String.make d ']' ^ "\n" in
    allocated_words (fun () -> Yamlite.parse text)
  in
  let s = 2000 in
  let ws = words s and w2s = words (2 * s) in
  if w2s > 2.5 *. ws then
    Alcotest.failf "depth %d allocated %.0f words, depth %d %.0f (%.2f times)" s ws (2 * s) w2s
      (w2s /. ws)

let () =
  Alcotest.run "yamlite"
    [ ( "scalars", [ Alcotest.test_case "inference" `Quick test_scalars ] );
      ( "parse",
        [ Alcotest.test_case "simple mapping" `Quick test_simple_mapping;
          Alcotest.test_case "nested mapping" `Quick test_nested_mapping;
          Alcotest.test_case "sequences" `Quick test_sequences;
          Alcotest.test_case "sequence of mappings" `Quick test_sequence_of_mappings;
          Alcotest.test_case "flow sequences" `Quick test_flow_sequences;
          Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
          Alcotest.test_case "hash inside quotes" `Quick test_hash_inside_quotes;
          Alcotest.test_case "colon in value" `Quick test_colon_in_value;
          Alcotest.test_case "empty document" `Quick test_empty_document;
          Alcotest.test_case "null-valued key" `Quick test_null_value_key;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "error line number" `Quick test_error_line_number ] );
      ( "flow",
        [ QCheck_alcotest.to_alcotest prop_flow_matches_oracle;
          Alcotest.test_case "allocation linear in nesting depth" `Quick
            test_flow_nesting_linear ] );
      ( "accessors", [ Alcotest.test_case "accessors" `Quick test_accessors ] );
      ( "roundtrip",
        [ Alcotest.test_case "handwritten" `Quick test_roundtrip_handwritten;
          QCheck_alcotest.to_alcotest prop_roundtrip ] ) ]
