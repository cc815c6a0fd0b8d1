open Wayfinder_configspace
module Rng = Wayfinder_tensor.Rng
module Kconfig = Wayfinder_kconfig

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let small_space () =
  Space.create
    [ Param.bool_param "printk" true;
      Param.int_param ~log_scale:true "net.core.somaxconn" ~lo:16 ~hi:65536 ~default:128;
      Param.int_param "vm.stat_interval" ~lo:1 ~hi:100 ~default:1;
      Param.categorical_param "net.core.default_qdisc" [| "pfifo_fast"; "fq"; "fq_codel" |]
        ~default:0;
      Param.tristate_param ~stage:Param.Compile_time "NET_FASTPATH" 1;
      Param.bool_param ~stage:Param.Boot_time "mitigations" true ]

(* ------------------------------------------------------------------ *)
(* Param                                                               *)
(* ------------------------------------------------------------------ *)

let test_param_value_ok () =
  let kint = Param.Kint { lo = 1; hi = 10; log_scale = false } in
  Alcotest.(check bool) "in range" true (Param.value_ok kint (Param.Vint 5));
  Alcotest.(check bool) "below" false (Param.value_ok kint (Param.Vint 0));
  Alcotest.(check bool) "above" false (Param.value_ok kint (Param.Vint 11));
  Alcotest.(check bool) "wrong type" false (Param.value_ok kint (Param.Vbool true));
  Alcotest.(check bool) "cat in" true (Param.value_ok (Param.Kcategorical [| "a"; "b" |]) (Param.Vcat 1));
  Alcotest.(check bool) "cat out" false
    (Param.value_ok (Param.Kcategorical [| "a"; "b" |]) (Param.Vcat 2))

let test_param_make_rejects_bad_default () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Param.int_param "x" ~lo:0 ~hi:10 ~default:42);
       false
     with Invalid_argument _ -> true)

let test_param_clamp () =
  let kint = Param.Kint { lo = 5; hi = 9; log_scale = false } in
  Alcotest.(check bool) "clamps low" true (Param.clamp kint (Param.Vint 1) = Param.Vint 5);
  Alcotest.(check bool) "clamps high" true (Param.clamp kint (Param.Vint 100) = Param.Vint 9)

let test_param_value_strings () =
  let p = Param.categorical_param "qdisc" [| "pfifo"; "fq" |] ~default:1 in
  Alcotest.(check string) "cat to string" "fq" (Param.value_to_string p.Param.kind p.Param.default);
  Alcotest.(check bool) "cat of string" true
    (Param.value_of_string p.Param.kind "pfifo" = Some (Param.Vcat 0));
  Alcotest.(check bool) "cat unknown" true (Param.value_of_string p.Param.kind "zzz" = None);
  Alcotest.(check bool) "bool of string" true
    (Param.value_of_string Param.Kbool "yes" = Some (Param.Vbool true));
  let kint = Param.Kint { lo = 0; hi = 10; log_scale = false } in
  Alcotest.(check bool) "int out of range rejected" true (Param.value_of_string kint "11" = None)

let test_param_sample_in_domain () =
  let rng = Rng.create 1 in
  let params =
    [ Param.bool_param "b" false;
      Param.int_param ~log_scale:true "i" ~lo:1 ~hi:1000000 ~default:10;
      Param.categorical_param "c" [| "x"; "y"; "z" |] ~default:0;
      Param.tristate_param "t" 0 ]
  in
  List.iter
    (fun p ->
      for _ = 1 to 200 do
        let v = Param.sample p rng in
        Alcotest.(check bool) ("sample ok " ^ p.Param.name) true (Param.value_ok p.Param.kind v)
      done)
    params

let test_param_perturb_changes_value () =
  let rng = Rng.create 2 in
  let p = Param.int_param "i" ~lo:0 ~hi:100 ~default:50 in
  for _ = 1 to 100 do
    let v = Param.perturb p rng (Param.Vint 50) in
    Alcotest.(check bool) "in domain" true (Param.value_ok p.Param.kind v);
    Alcotest.(check bool) "changed" false (Param.value_equal v (Param.Vint 50))
  done;
  let b = Param.bool_param "b" false in
  Alcotest.(check bool) "bool flips" true
    (Param.perturb b rng (Param.Vbool false) = Param.Vbool true)

let test_param_cardinality () =
  Alcotest.(check (float 1e-9)) "bool" 2. (Param.cardinality Param.Kbool);
  Alcotest.(check (float 1e-9)) "int" 11.
    (Param.cardinality (Param.Kint { lo = 0; hi = 10; log_scale = false }));
  Alcotest.(check (float 1e-9)) "cat" 3. (Param.cardinality (Param.Kcategorical [| "a"; "b"; "c" |]))

(* ------------------------------------------------------------------ *)
(* Space                                                               *)
(* ------------------------------------------------------------------ *)

let test_space_basics () =
  let s = small_space () in
  Alcotest.(check int) "size" 6 (Space.size s);
  Alcotest.(check int) "index lookup" 1 (Space.index_of s "net.core.somaxconn");
  Alcotest.(check bool) "mem" true (Space.mem s "printk");
  Alcotest.(check bool) "not mem" false (Space.mem s "nope");
  let d = Space.defaults s in
  Alcotest.(check bool) "default value" true
    (Param.value_equal (Space.get s d "net.core.somaxconn") (Param.Vint 128));
  Alcotest.(check (list (pair int string))) "defaults valid" [] (Space.validate s d)

let test_space_duplicate_names () =
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore (Space.create [ Param.bool_param "a" false; Param.bool_param "a" true ]);
       false
     with Invalid_argument _ -> true)

let test_space_random_valid () =
  let s = small_space () in
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    let c = Space.random s rng in
    Alcotest.(check (list (pair int string))) "valid" [] (Space.validate s c)
  done

let test_space_fix () =
  let s = small_space () in
  let s = Space.fix s [ ("printk", Param.Vbool false) ] in
  let rng = Rng.create 4 in
  for _ = 1 to 50 do
    let c = Space.random s rng in
    Alcotest.(check bool) "pinned stays" true
      (Param.value_equal (Space.get s c "printk") (Param.Vbool false))
  done;
  (* validate flags violated pins *)
  let c = Space.defaults s in
  let c = Array.copy c in
  c.(Space.index_of s "printk") <- Param.Vbool true;
  Alcotest.(check bool) "pin violation detected" true (Space.validate s c <> [])

let test_space_sample_biased () =
  let s = small_space () in
  let rng = Rng.create 5 in
  (* Never vary: identical to defaults. *)
  let c = Space.sample_biased s rng ~vary_probability:(fun _ -> 0.) in
  Alcotest.(check (list (triple string string string))) "no variation" []
    (Space.diff s (Space.defaults s) c);
  (* Favor runtime: compile-time params should essentially never change. *)
  let changed_compile = ref 0 and changed_runtime = ref 0 in
  for _ = 1 to 300 do
    let c = Space.sample_biased s rng ~vary_probability:(Space.favor_stage Param.Runtime ~weak:0.) in
    List.iter
      (fun (name, _, _) ->
        match (Space.param s (Space.index_of s name)).Param.stage with
        | Param.Compile_time -> incr changed_compile
        | Param.Runtime -> incr changed_runtime
        | Param.Boot_time -> ())
      (Space.diff s (Space.defaults s) c)
  done;
  Alcotest.(check int) "compile-time untouched" 0 !changed_compile;
  Alcotest.(check bool) "runtime varied" true (!changed_runtime > 0)

let test_space_mutate () =
  let s = small_space () in
  let rng = Rng.create 6 in
  let base = Space.defaults s in
  for _ = 1 to 50 do
    let c = Space.mutate s rng base ~count:2 in
    Alcotest.(check (list (pair int string))) "mutant valid" [] (Space.validate s c);
    Alcotest.(check bool) "at most 2 changes" true (List.length (Space.diff s base c) <= 2)
  done

let test_space_crossover () =
  let s = small_space () in
  let rng = Rng.create 7 in
  let a = Space.random s rng and b = Space.random s rng in
  let c = Space.crossover s rng a b in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) "gene from a parent" true
        (Param.value_equal v a.(i) || Param.value_equal v b.(i)))
    c

let test_space_differs_only_in_stage () =
  let s = small_space () in
  let d = Space.defaults s in
  let c1 = Space.set s d "vm.stat_interval" (Param.Vint 10) in
  Alcotest.(check bool) "runtime-only diff" true
    (Space.differs_only_in_stage s d c1 Param.Runtime);
  let c2 = Space.set s c1 "NET_FASTPATH" (Param.Vtristate 2) in
  Alcotest.(check bool) "compile diff breaks it" false
    (Space.differs_only_in_stage s d c2 Param.Runtime)

let test_space_log10_cardinality () =
  let s =
    Space.create [ Param.bool_param "a" false; Param.int_param "b" ~lo:1 ~hi:10 ~default:1 ]
  in
  Alcotest.(check (float 1e-9)) "2 * 10" (log10 20.) (Space.log10_cardinality s);
  let s = Space.fix s [ ("a", Param.Vbool true) ] in
  Alcotest.(check (float 1e-9)) "fixed excluded" (log10 10.) (Space.log10_cardinality s)

let test_space_of_kconfig () =
  let tree =
    Kconfig.Parser.parse
      "config A\n\tbool \"a\"\n\tdefault y\nconfig B\n\ttristate \"b\"\n\tdefault m\nconfig C\n\tint \"c\"\n\trange 1 100\n\tdefault 42\nconfig D\n\tstring \"d\"\n\tdefault \"foo\"\n"
  in
  let params = Space.of_kconfig (Kconfig.Space.descriptors tree) in
  let s = Space.create params in
  Alcotest.(check int) "param count" 4 (Space.size s);
  let d = Space.defaults s in
  Alcotest.(check bool) "bool default" true
    (Param.value_equal (Space.get s d "A") (Param.Vbool true));
  Alcotest.(check bool) "tristate default" true
    (Param.value_equal (Space.get s d "B") (Param.Vtristate 1));
  Alcotest.(check bool) "int default" true (Param.value_equal (Space.get s d "C") (Param.Vint 42));
  Alcotest.(check bool) "string becomes categorical" true
    (match (Space.param s (Space.index_of s "D")).Param.kind with
    | Param.Kcategorical [| "foo" |] -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let test_encoding_dim_and_names () =
  let s = small_space () in
  let e = Encoding.create s in
  (* bool + int + int + one-hot(3) + tristate + bool = 8 *)
  Alcotest.(check int) "dim" 8 (Encoding.dim e);
  (* The one-hot block (features 3-5) belongs to the categorical. *)
  let score = Array.init 8 (fun j -> if j = 4 then 1. else 0.) in
  Alcotest.(check string) "one-hot owner" "net.core.default_qdisc"
    (fst (Encoding.param_importance e score).(0))

let test_encoding_values () =
  let s = small_space () in
  let e = Encoding.create s in
  let d = Space.defaults s in
  let v = Encoding.encode e d in
  Alcotest.(check (float 1e-9)) "bool true" 1. v.(0);
  Alcotest.(check (float 1e-9)) "one-hot default" 1. v.(3);
  Alcotest.(check (float 1e-9)) "one-hot others" 0. v.(4);
  Alcotest.(check (float 1e-9)) "tristate m" 0.5 v.(6);
  (* log-scaled int: lo -> 0, hi -> 1 *)
  let c_lo = Space.set s d "net.core.somaxconn" (Param.Vint 16) in
  let c_hi = Space.set s d "net.core.somaxconn" (Param.Vint 65536) in
  Alcotest.(check (float 1e-9)) "log lo" 0. (Encoding.encode e c_lo).(1);
  Alcotest.(check (float 1e-9)) "log hi" 1. (Encoding.encode e c_hi).(1)

let test_encoding_bounded () =
  let s = small_space () in
  let e = Encoding.create s in
  let rng = Rng.create 9 in
  for _ = 1 to 100 do
    let v = Encoding.encode e (Space.random s rng) in
    Array.iter
      (fun x -> Alcotest.(check bool) "in [0,1]" true (x >= 0. && x <= 1.))
      v
  done

let test_encoding_distance () =
  let s = small_space () in
  let e = Encoding.create s in
  let d = Space.defaults s in
  Alcotest.(check (float 1e-9)) "self distance" 0. (Encoding.distance e d d);
  let c = Space.set s d "printk" (Param.Vbool false) in
  Alcotest.(check (float 1e-9)) "single bool flip" 1. (Encoding.distance e d c)

let test_encoding_param_importance () =
  let s = small_space () in
  let e = Encoding.create s in
  let scores = Array.make (Encoding.dim e) 0. in
  scores.(3) <- 0.2;
  scores.(4) <- 0.3;
  (* both belong to default_qdisc *)
  scores.(0) <- 0.1;
  let ranked = Encoding.param_importance e scores in
  let top_name, top_score = ranked.(0) in
  Alcotest.(check string) "aggregated winner" "net.core.default_qdisc" top_name;
  Alcotest.(check (float 1e-9)) "aggregated score" 0.5 top_score

(* ------------------------------------------------------------------ *)
(* Probe                                                               *)
(* ------------------------------------------------------------------ *)

(* A fake /proc/sys with known semantics. *)
let fake_sysfs () =
  let store = Hashtbl.create 8 in
  Hashtbl.replace store "net.core.somaxconn" "128";
  Hashtbl.replace store "vm.swappiness" "60";
  Hashtbl.replace store "kernel.panic" "0";
  Hashtbl.replace store "kernel.hostname" "wayfinder";
  let accepts file v =
    match (file, int_of_string_opt v) with
    | _, None -> false
    | "net.core.somaxconn", Some i -> i >= 1 && i <= 128000
    | "vm.swappiness", Some i -> i >= 0 && i <= 200
    | "kernel.panic", Some i -> i >= 0 && i <= 1
    | _, Some _ -> false
  in
  {
    Probe.list_files =
      (fun () -> [ "net.core.somaxconn"; "vm.swappiness"; "kernel.panic"; "kernel.hostname" ]);
    read = (fun f -> Hashtbl.find_opt store f);
    write =
      (fun f v ->
        if accepts f v then begin
          Hashtbl.replace store f v;
          Probe.Accepted
        end
        else Probe.Rejected);
  }

let test_probe_types () =
  let report = Probe.probe (fake_sysfs ()) in
  Alcotest.(check int) "three numeric params" 3 (List.length report.Probe.probed);
  Alcotest.(check (list string)) "string skipped" [ "kernel.hostname" ] report.Probe.skipped;
  let panic = List.find (fun p -> p.Param.name = "kernel.panic") report.Probe.probed in
  Alcotest.(check bool) "0/1 default is bool" true (panic.Param.kind = Param.Kbool)

let test_probe_ranges () =
  let report = Probe.probe (fake_sysfs ()) in
  let somaxconn = List.find (fun p -> p.Param.name = "net.core.somaxconn") report.Probe.probed in
  (match somaxconn.Param.kind with
   | Param.Kint { lo; hi; _ } ->
     (* Scaling 128 by tens: up 1280, 12800, 128000 accepted, 1280000 not;
        down 12, 1 accepted, 0 rejected. *)
     Alcotest.(check int) "hi" 128000 hi;
     Alcotest.(check int) "lo" 1 lo
   | _ -> Alcotest.fail "expected int kind");
  (* Probe restores the default afterwards. *)
  let iface = fake_sysfs () in
  let _ = Probe.probe iface in
  Alcotest.(check (option string)) "default restored" (Some "128") (iface.Probe.read "net.core.somaxconn")

let test_probe_crash_counted () =
  let iface = fake_sysfs () in
  let crashing =
    { iface with
      Probe.write =
        (fun f v ->
          if f = "vm.swappiness" && int_of_string_opt v = Some 600 then Probe.Crash
          else iface.Probe.write f v) }
  in
  let report = Probe.probe crashing in
  Alcotest.(check bool) "crash recorded" true (report.Probe.crashes >= 1)

(* ------------------------------------------------------------------ *)
(* Jobfile                                                             *)
(* ------------------------------------------------------------------ *)

let sample_job =
  {|
name: nginx-linux
os: sim-linux
app: nginx
metric: throughput
maximize: true
iterations: 250
seed: 42
favor: runtime
fixed:
  - name: kernel.randomize_va_space
    value: "1"
params:
  - name: net.core.somaxconn
    stage: runtime
    type: int
    min: 16
    max: 65536
    log: true
    default: 128
  - name: kernel.randomize_va_space
    stage: runtime
    type: bool
    default: true
  - name: net.core.default_qdisc
    stage: runtime
    type: categorical
    values: [pfifo_fast, fq, fq_codel]
    default: pfifo_fast
  - name: DEBUG_INFO
    stage: compile-time
    type: tristate
    default: n
|}

let test_jobfile_parse () =
  let job = Jobfile.parse sample_job in
  Alcotest.(check string) "name" "nginx-linux" job.Jobfile.job_name;
  Alcotest.(check string) "app" "nginx" job.Jobfile.app;
  Alcotest.(check bool) "maximize" true job.Jobfile.maximize;
  Alcotest.(check (option int)) "iterations" (Some 250) job.Jobfile.iterations;
  Alcotest.(check bool) "favor runtime" true (job.Jobfile.favor = Some Param.Runtime);
  Alcotest.(check int) "space size" 4 (Space.size job.Jobfile.space)

let test_jobfile_fixed_pins () =
  let job = Jobfile.parse sample_job in
  let s = job.Jobfile.space in
  let i = Space.index_of s "kernel.randomize_va_space" in
  Alcotest.(check bool) "ASLR pinned on" true
    (match Space.fixed_value s i with Some (Param.Vbool true) -> true | _ -> false);
  let rng = Rng.create 1 in
  for _ = 1 to 20 do
    let c = Space.random s rng in
    Alcotest.(check bool) "never varied" true
      (Param.value_equal (Space.get s c "kernel.randomize_va_space") (Param.Vbool true))
  done

let test_jobfile_schema_errors () =
  let expect text =
    match Jobfile.parse text with
    | exception Jobfile.Schema_error _ -> ()
    | _ -> Alcotest.fail "expected schema error"
  in
  expect "os: x\napp: y\nmetric: z\nparams: []\n";
  (* missing name *)
  expect "name: j\nos: x\napp: y\nmetric: z\n";
  (* missing params *)
  expect
    "name: j\nos: x\napp: y\nmetric: z\nparams:\n  - name: p\n    type: int\n    min: 5\n    max: 1\n";
  expect
    "name: j\nos: x\napp: y\nmetric: z\nparams:\n  - name: p\n    type: wibble\n"

let test_jobfile_roundtrip () =
  let job = Jobfile.parse sample_job in
  let job2 = Jobfile.of_yaml (Jobfile.to_yaml job) in
  Alcotest.(check string) "name" job.Jobfile.job_name job2.Jobfile.job_name;
  Alcotest.(check int) "space size" (Space.size job.Jobfile.space) (Space.size job2.Jobfile.space);
  let d1 = Space.defaults job.Jobfile.space and d2 = Space.defaults job2.Jobfile.space in
  Alcotest.(check (list (triple string string string))) "defaults agree" []
    (Space.diff job.Jobfile.space d1 d2)

(* A job over a simulator space: it narrows [backlog], pins [flag] and
   leaves [unlisted] out. *)
let narrowing_job ~max =
  Printf.sprintf
    {|
name: narrow
os: sim
app: app
metric: throughput
fixed:
  - name: flag
    value: "true"
params:
  - name: backlog
    type: int
    min: 128
    max: %d
    default: 130
  - name: flag
    type: bool
    default: false
|}
    max

let test_jobfile_restrict () =
  let sim =
    Space.create
      [ Param.int_param ~stage:Param.Boot_time ~log_scale:true "backlog" ~lo:16 ~hi:65536
          ~default:1024;
        Param.bool_param "flag" false;
        Param.int_param "unlisted" ~lo:0 ~hi:100 ~default:60 ]
  in
  (match Jobfile.restrict (Jobfile.parse (narrowing_job ~max:131)) sim with
  | Error e -> Alcotest.failf "narrowed job refused: %s" e
  | Ok s ->
    let p = Space.param s (Space.index_of s "backlog") in
    Alcotest.(check bool) "the job's range and default, the simulator's stage and log scale" true
      (p.Param.kind = Param.Kint { lo = 128; hi = 131; log_scale = true }
      && p.Param.stage = Param.Boot_time
      && p.Param.default = Param.Vint 130);
    let rng = Rng.create 3 in
    for _ = 1 to 200 do
      let c = Space.random s rng in
      (match Space.get s c "backlog" with
      | Param.Vint v when v >= 128 && v <= 131 -> ()
      | v -> Alcotest.failf "backlog %s drawn outside [128, 131]" (Param.value_token v));
      Alcotest.(check bool) "the job's pin holds" true (Space.get s c "flag" = Param.Vbool true);
      Alcotest.(check bool) "an unlisted parameter stays at its default" true
        (Space.get s c "unlisted" = Param.Vint 60)
    done);
  (match Jobfile.restrict (Jobfile.parse (narrowing_job ~max:70000)) sim with
  | Ok _ -> Alcotest.fail "a range past the simulator's was accepted"
  | Error e ->
    Alcotest.(check string) "the error names the parameter and both ranges"
      "job parameter backlog: range [128, 70000] is not inside the simulator's [16, 65536]" e);
  (* Categorical lists: one value pins, all of the simulator's values (in
     any order) keep the parameter explorable with the default mapped by
     name, anything else is refused. *)
  let sim =
    Space.create
      [ Param.categorical_param "qdisc" [| "pfifo_fast"; "fq"; "fq_codel" |] ~default:0 ]
  in
  let restrict values default =
    Jobfile.restrict
      (Jobfile.parse
         (Printf.sprintf
            "name: q\nos: sim\napp: app\nmetric: throughput\nparams:\n  - name: qdisc\n    \
             type: categorical\n    values: [%s]\n    default: %s\n"
            values default))
      sim
  in
  (match restrict "fq" "fq" with
  | Error e -> Alcotest.failf "a one-value list was refused: %s" e
  | Ok s ->
    Alcotest.(check (option string)) "a one-value list pins the value" (Some "fq")
      (Option.map
         (Param.value_to_string (Space.param s 0).Param.kind)
         (Space.fixed_value s 0)));
  (match restrict "fq_codel, pfifo_fast, fq" "fq" with
  | Error e -> Alcotest.failf "the simulator's values were refused: %s" e
  | Ok s ->
    let p = Space.param s 0 in
    Alcotest.(check bool) "all values keep the simulator's order, the default by name" true
      (Space.fixed_value s 0 = None
      && p.Param.kind = Param.Kcategorical [| "pfifo_fast"; "fq"; "fq_codel" |]
      && p.Param.default = Param.Vcat 1));
  List.iter
    (fun (values, default) ->
      match restrict values default with
      | Ok _ -> Alcotest.failf "values [%s] were accepted" values
      | Error e ->
        Alcotest.(check string) "the error names the parameter and both lists"
          (Printf.sprintf
             "job parameter qdisc: values [%s] are neither one of the simulator's [pfifo_fast, \
              fq, fq_codel] nor all of them"
             values)
          e)
    [ ("bbr", "bbr"); ("fq, fq_codel", "fq"); ("fq, fq_codel, pfifo_fast, bbr", "fq") ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_random_configs_encode_bounded =
  QCheck2.Test.make ~name:"encodings of random configs lie in [0,1]" ~count:100
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let s = small_space () in
      let e = Encoding.create s in
      let c = Space.random s (Rng.create seed) in
      Array.for_all (fun x -> x >= 0. && x <= 1.) (Encoding.encode e c))

(* [encode_into] writes every element of its buffer: over a buffer filled
   with garbage (signed zeros, non-finite values, many magnitudes) it
   gives bitwise what [encode] returns, on the three simulators' spaces,
   for uniform and runtime-favoured draws. *)
let prop_encode_into_overwrites_garbage =
  let module Sim = Wayfinder_simos in
  let spaces =
    lazy
      [| Sim.Sim_linux.space (Sim.Sim_linux.create ());
         Sim.Sim_unikraft.space (Sim.Sim_unikraft.create ());
         Sim.Sim_riscv.space (Sim.Sim_riscv.create ()) |]
  in
  QCheck2.Test.make ~name:"encode_into over garbage is bitwise encode" ~count:150
    QCheck2.Gen.(quad (int_range 0 2) bool (int_range 0 100_000) (int_range 0 100_000))
    (fun (which, favored, seed, fill) ->
      let space = (Lazy.force spaces).(which) in
      let enc = Encoding.create space in
      let rng = Rng.create seed in
      let config =
        if favored then
          Space.sample_biased space rng ~vary_probability:(Space.favor_stage Param.Runtime)
        else Space.random space rng
      in
      let garbage = Rng.create fill in
      let out = Array.init (Encoding.dim enc) (fun _ -> Oracle.value ~special:true garbage) in
      Encoding.encode_into enc config out;
      List.map Oracle.bits (Array.to_list out)
      = List.map Oracle.bits (Array.to_list (Encoding.encode enc config)))

let prop_mutate_preserves_validity =
  QCheck2.Test.make ~name:"mutation preserves validity" ~count:100
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 1 6))
    (fun (seed, count) ->
      let s = small_space () in
      let rng = Rng.create seed in
      let c = Space.random s rng in
      Space.validate s (Space.mutate s rng c ~count) = [])

(* ------------------------------------------------------------------ *)
(* Canonical config key                                                 *)
(* ------------------------------------------------------------------ *)

(* A space wide enough that the truncated-hash bug bites: [Hashtbl.hash]
   inspects at most 10 meaningful values of a list, so configurations
   past that prefix are invisible to it. *)
let wide_space () =
  Space.create
    (List.init 16 (fun i ->
         match i mod 3 with
         | 0 -> Param.bool_param (Printf.sprintf "b%d" i) false
         | 1 -> Param.int_param (Printf.sprintf "i%d" i) ~lo:0 ~hi:100 ~default:0
         | _ -> Param.tristate_param (Printf.sprintf "t%d" i) 0))

let test_config_key_beats_truncated_hash () =
  (* Regression for the quarantine-key bug: the driver used to key strike
     and quarantine state on [Hashtbl.hash (Array.to_list config)], which
     hashes only a bounded prefix — two configurations identical in their
     first 10 parameters but differing in the 11th shared a key and
     silently pooled their quarantine strikes.  The canonical key must
     separate them. *)
  let a = Array.init 12 (fun _ -> Param.Vint 1) in
  let b = Array.copy a in
  b.(11) <- Param.Vint 2;
  Alcotest.(check bool) "truncated hash collides (the old bug)" true
    (Hashtbl.hash (Array.to_list a) = Hashtbl.hash (Array.to_list b));
  Alcotest.(check bool) "canonical keys differ" true
    (Param.config_key a <> Param.config_key b);
  Alcotest.(check string) "key is the comma-joined value tokens" "b1,i7,t2,c0"
    (Param.config_key [| Param.Vbool true; Param.Vint 7; Param.Vtristate 2; Param.Vcat 0 |])

let prop_config_key_injective =
  QCheck2.Test.make ~name:"config_key is injective on space configurations" ~count:300
    QCheck2.Gen.(pair (int_range 0 20000) (int_range 0 20000))
    (fun (s1, s2) ->
      let s = wide_space () in
      let a = Space.random s (Rng.create s1) in
      let b = Space.random s (Rng.create s2) in
      (Param.config_key a = Param.config_key b) = (a = b))

let prop_config_key_tokens_decode =
  QCheck2.Test.make ~name:"config_key splits back into decodable tokens" ~count:100
    QCheck2.Gen.(int_range 0 20000)
    (fun seed ->
      let s = wide_space () in
      let c = Space.random s (Rng.create seed) in
      let decoded =
        String.split_on_char ',' (Param.config_key c)
        |> List.map Param.value_of_token
      in
      List.for_all Option.is_some decoded
      && List.map Option.get decoded = Array.to_list c)

(* Tokens and keys write their digits straight into an exact-length
   string; the bytes must be those of the string_of_int tokens, extreme
   and negative integers included. *)
let reference_token = function
  | Param.Vbool b -> if b then "b1" else "b0"
  | Param.Vtristate i -> "t" ^ string_of_int i
  | Param.Vint n -> "i" ^ string_of_int n
  | Param.Vcat i -> "c" ^ string_of_int i

let prop_tokens_match_reference =
  QCheck2.Test.make ~name:"value_token and config_key print the reference tokens" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 12)
        (let int = oneof [ int; oneofl [ min_int; max_int; 0; -1; 9; 10; -10; 99; -100 ] ] in
         oneof
           [ map (fun b -> Param.Vbool b) bool; map (fun i -> Param.Vtristate i) int;
             map (fun i -> Param.Vint i) int; map (fun i -> Param.Vcat i) int ]))
    (fun values ->
      List.for_all (fun v -> Param.value_token v = reference_token v) values
      && Param.config_key (Array.of_list values)
         = String.concat "," (List.map reference_token values))

(* Integer parameters with lo = 0, lo = hi, hi <= 0 and lo < 0 among
   them, log-scaled or not: every encoding and every draw must be the
   per-call formulas' ([Oracle.encode_int], [Oracle.sample_int]) bit for
   bit, and a draw must leave the stream where they left it. *)
let prop_int_scaling_matches_oracle =
  QCheck2.Test.make ~name:"integer encoding and draws bitwise equal the per-call log10 formulas"
    ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 6)
           (triple
              (oneof [ oneofl [ 0; 1; -1; 16; -5000 ]; int_range (-100_000) 100_000 ])
              (oneof [ pure 0; int_range 1 10; int_range 1 10_000_000 ])
              bool))
        (int_range 0 10000))
    (fun (specs, seed) ->
      let specs = List.map (fun (lo, span, log_scale) -> (lo, lo + span, log_scale)) specs in
      let space =
        Space.create
          (List.mapi
             (fun k (lo, hi, log_scale) ->
               Param.int_param ~log_scale (Printf.sprintf "p%d" k) ~lo ~hi ~default:lo)
             specs)
      in
      let enc = Encoding.create space in
      let rng = Rng.create seed in
      let encodes config =
        let expect =
          List.mapi
            (fun k (lo, hi, log_scale) ->
              match config.(k) with
              | Param.Vint i -> Oracle.encode_int ~lo ~hi ~log_scale i
              | Param.Vbool _ | Param.Vtristate _ | Param.Vcat _ -> nan)
            specs
        in
        List.map Oracle.bits (Array.to_list (Encoding.encode enc config))
        = List.map Oracle.bits expect
      in
      let draws () =
        let old = Rng.copy rng and one = Rng.copy rng in
        let config = Space.random space rng in
        let expect =
          List.map (fun (lo, hi, log_scale) -> Param.Vint (Oracle.sample_int old ~lo ~hi ~log_scale)) specs
        in
        let singly = Array.map (fun p -> Param.sample p one) (Space.params space) in
        Array.to_list config = expect
        && singly = config
        && Rng.state rng = Rng.state old
        && Rng.state one = Rng.state old
        && encodes config
      in
      let bounds which =
        Array.of_list (List.map (fun (lo, hi, _) -> Param.Vint (which lo hi)) specs)
      in
      encodes (bounds (fun lo _ -> lo))
      && encodes (bounds (fun _ hi -> hi))
      && encodes (bounds (fun lo hi -> Rng.int_in rng lo hi))
      && List.for_all (fun _ -> draws ()) (List.init 20 Fun.id))

(* Parameters of every kind, categorical ones with more choices than
   the shared [Vcat] blocks cover among them. *)
let gen_param =
  QCheck2.Gen.(
    let* k = int_range 0 3 in
    match k with
    | 0 -> pure (Param.bool_param "b" false)
    | 1 -> pure (Param.tristate_param "t" 0)
    | 2 ->
      let* lo = oneof [ oneofl [ 0; 1; -1; 16 ]; int_range (-1000) 1000 ] in
      let* span = oneof [ pure 0; int_range 1 10; int_range 1 1_000_000 ] in
      let* log_scale = bool in
      pure (Param.int_param ~log_scale "i" ~lo ~hi:(lo + span) ~default:lo)
    | _ ->
      let* n = oneof [ int_range 1 8; int_range 60 80 ] in
      pure (Param.categorical_param "c" (Array.init n (Printf.sprintf "l%d")) ~default:0))

(* [sample], [perturb], [clamp] and the two parsers return shared
   blocks for the small values: the values must equal the old fresh
   ones, and every draw must leave the generator where the old one
   did. *)
let prop_shared_values_match_oracle =
  QCheck2.Test.make ~name:"shared small values equal the old fresh ones" ~count:500
    QCheck2.Gen.(
      triple (list_size (int_range 1 8) gen_param) (int_range 0 100_000)
        (list_size (int_range 0 8) (oneof [ int_range (-3) 90; oneofl [ min_int; max_int ] ])))
    (fun (params, seed, ints) ->
      let module O = Oracle.Param_values in
      let rng = Rng.create seed in
      let attempt f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
      List.for_all
        (fun (p : Param.t) ->
          let kind = p.Param.kind in
          let draw f =
            let mine = Rng.copy rng in
            let v = f mine in
            (v, Rng.state mine)
          in
          let v, st = draw (Param.sample p) in
          let v', st' = draw (O.sample p) in
          let moved, mst = draw (fun r -> Param.perturb p r v) in
          let moved', mst' = draw (fun r -> O.perturb p r v) in
          Rng.set_state rng st;
          let arbitrary =
            List.concat_map
              (fun i -> [ Param.Vbool (i land 1 = 1); Param.Vtristate i; Param.Vint i; Param.Vcat i ])
              ints
          in
          let texts =
            [ Param.value_to_string kind v; Param.value_token v; "b2"; "t"; "c-1"; "yes"; "m" ]
            @ (match kind with Param.Kcategorical labels -> Array.to_list labels | _ -> [])
            @ List.map string_of_int ints
            @ List.concat_map (fun i -> [ "t" ^ string_of_int i; "c" ^ string_of_int i ]) ints
          in
          v = v' && st = st' && moved = moved' && mst = mst'
          && List.for_all
               (fun x -> attempt (fun () -> Param.clamp kind x) = attempt (fun () -> O.clamp kind x))
               (v :: arbitrary)
          && List.for_all
               (fun s ->
                 Param.value_of_token s = O.value_of_token s
                 && Param.value_of_string kind s = O.value_of_string kind s)
               texts)
        params)

(* A stored configuration costs one word per boolean, tristate or
   categorical value: 1,000 draws from such a space reach their arrays
   and a constant's worth of shared blocks, where fresh values cost
   three words each. *)
let test_shared_values_memory () =
  let n = 120 in
  let space =
    Space.create
      (List.init n (fun i ->
           let name = Printf.sprintf "p%d" i in
           match i mod 3 with
           | 0 -> Param.bool_param name false
           | 1 -> Param.tristate_param name 0
           | _ -> Param.categorical_param name (Array.init (2 + (i mod 7)) string_of_int) ~default:0))
  in
  let rng = Rng.create 5 in
  let configs = Array.init 1000 (fun _ -> Space.random space rng) in
  let words = Obj.reachable_words (Obj.repr configs) in
  let bound = 1001 + (1000 * (n + 1)) + 512 in
  if words > bound then
    Alcotest.failf "1,000 configurations reach %d words, more than %d" words bound

let () =
  Alcotest.run "configspace"
    [ ( "param",
        [ Alcotest.test_case "value_ok" `Quick test_param_value_ok;
          Alcotest.test_case "make rejects bad default" `Quick test_param_make_rejects_bad_default;
          Alcotest.test_case "clamp" `Quick test_param_clamp;
          Alcotest.test_case "value strings" `Quick test_param_value_strings;
          Alcotest.test_case "sample in domain" `Quick test_param_sample_in_domain;
          Alcotest.test_case "perturb changes value" `Quick test_param_perturb_changes_value;
          Alcotest.test_case "cardinality" `Quick test_param_cardinality;
          Alcotest.test_case "config_key beats the truncated hash" `Quick
            test_config_key_beats_truncated_hash;
          Alcotest.test_case "stored configurations share small values" `Quick
            test_shared_values_memory ] );
      ( "space",
        [ Alcotest.test_case "basics" `Quick test_space_basics;
          Alcotest.test_case "duplicate names" `Quick test_space_duplicate_names;
          Alcotest.test_case "random valid" `Quick test_space_random_valid;
          Alcotest.test_case "fix pins" `Quick test_space_fix;
          Alcotest.test_case "biased sampling" `Quick test_space_sample_biased;
          Alcotest.test_case "mutate" `Quick test_space_mutate;
          Alcotest.test_case "crossover" `Quick test_space_crossover;
          Alcotest.test_case "stage-restricted diff" `Quick test_space_differs_only_in_stage;
          Alcotest.test_case "log10 cardinality" `Quick test_space_log10_cardinality;
          Alcotest.test_case "of_kconfig" `Quick test_space_of_kconfig ] );
      ( "encoding",
        [ Alcotest.test_case "dim and names" `Quick test_encoding_dim_and_names;
          Alcotest.test_case "values" `Quick test_encoding_values;
          Alcotest.test_case "bounded" `Quick test_encoding_bounded;
          Alcotest.test_case "distance" `Quick test_encoding_distance;
          Alcotest.test_case "parameter importance" `Quick test_encoding_param_importance ] );
      ( "probe",
        [ Alcotest.test_case "type inference" `Quick test_probe_types;
          Alcotest.test_case "range estimation" `Quick test_probe_ranges;
          Alcotest.test_case "crash counting" `Quick test_probe_crash_counted ] );
      ( "jobfile",
        [ Alcotest.test_case "parse" `Quick test_jobfile_parse;
          Alcotest.test_case "fixed pins" `Quick test_jobfile_fixed_pins;
          Alcotest.test_case "schema errors" `Quick test_jobfile_schema_errors;
          Alcotest.test_case "roundtrip" `Quick test_jobfile_roundtrip;
          Alcotest.test_case "restrict narrows the simulator's space" `Quick
            test_jobfile_restrict ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_configs_encode_bounded; prop_encode_into_overwrites_garbage;
            prop_mutate_preserves_validity;
            prop_config_key_injective; prop_config_key_tokens_decode;
            prop_tokens_match_reference; prop_int_scaling_matches_oracle;
            prop_shared_values_match_oracle ] ) ]
