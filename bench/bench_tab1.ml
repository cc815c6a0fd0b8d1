(* Table 1: configuration space census for Linux 6.0.

   Compile-time counts come from parsing the synthetic 6.0 Kconfig tree,
   whose typed space is then extracted (descriptors -> parameters -> space)
   and checked against the census;
   boot-time options are counted from a command-line catalogue scaled to
   the paper's 231; runtime options from a /proc-style listing scaled to
   13 328.  SimLinux's own (experiment-sized) space is reported alongside. *)

module K = Wayfinder_kconfig
module S = Wayfinder_simos
module Param = Wayfinder_configspace.Param
module Space = Wayfinder_configspace.Space

(* The full-size boot/runtime catalogues are represented by their counts;
   the experiment kernel (SimLinux) carries a down-scaled but structurally
   identical space. *)
let paper_boot_options = 231
let paper_runtime_options = 13328

let run () =
  Bench_common.section "Table 1: configuration space of Linux 6.0";
  let tree = K.Parser.parse (K.Ast.print_tree (K.Synthetic.generate K.Synthetic.linux_6_0)) in
  let census = K.Space.census tree in
  Printf.printf "Compile-time options (parsed from the Kconfig hierarchy):\n";
  Printf.printf "  %8s %8s %8s %8s %8s | %9s %9s\n" "bool" "tristate" "string" "hex" "int"
    "boot-time" "runtime";
  Printf.printf "  %8d %8d %8d %8d %8d | %9d %9d\n" census.K.Space.bool_count
    census.K.Space.tristate_count census.K.Space.string_count census.K.Space.hex_count
    census.K.Space.int_count paper_boot_options paper_runtime_options;
  Printf.printf "  (paper:  7585    10034      154       94     3405 |       231     13328)\n";
  Bench_common.check (census.K.Space.bool_count = 7585) "bool count matches Table 1";
  Bench_common.check (census.K.Space.tristate_count = 10034) "tristate count matches Table 1";
  Bench_common.check (census.K.Space.string_count = 154) "string count matches Table 1";
  Bench_common.check (census.K.Space.hex_count = 94) "hex count matches Table 1";
  Bench_common.check (census.K.Space.int_count = 3405) "int count matches Table 1";
  (* The tree's typed compile-time space, checked against the census. *)
  let t0 = Unix.gettimeofday () in
  let extracted = Space.create (Space.of_kconfig (K.Space.descriptors tree)) in
  let extract_s = Unix.gettimeofday () -. t0 in
  let count_kind is_kind =
    Array.fold_left
      (fun acc p -> if is_kind p.Param.kind then acc + 1 else acc)
      0 (Space.params extracted)
  in
  let bools = count_kind (function Param.Kbool -> true | _ -> false)
  and tristates = count_kind (function Param.Ktristate -> true | _ -> false)
  and ints = count_kind (function Param.Kint _ -> true | _ -> false)
  and categoricals = count_kind (function Param.Kcategorical _ -> true | _ -> false) in
  Printf.printf
    "\nExtracted compile-time space: %d parameters (%d bool, %d tristate, %d int, %d \
     categorical), log10(|space|) = %.0f, in %.2f s\n"
    (Space.size extracted) bools tristates ints categoricals
    (Space.log10_cardinality extracted) extract_s;
  Bench_common.check
    (Space.size extracted = K.Space.census_total census)
    "one typed parameter per census option";
  Bench_common.check (bools = census.K.Space.bool_count) "bool symbols extract as bools";
  Bench_common.check
    (tristates = census.K.Space.tristate_count)
    "tristate symbols extract as tristates";
  Bench_common.check
    (ints = census.K.Space.int_count + census.K.Space.hex_count)
    "int and hex symbols extract as ints";
  Bench_common.check
    (categoricals = census.K.Space.string_count)
    "string symbols extract as categoricals";
  Bench_common.check
    (Space.validate extracted (Space.defaults extracted) = [])
    "Kconfig defaults lie inside the extracted domains";
  (* The experiment kernel used by the searches below. *)
  let sim = S.Sim_linux.create () in
  let space = S.Sim_linux.space sim in
  let count stage =
    Array.fold_left
      (fun acc p -> if p.Param.stage = stage then acc + 1 else acc)
      0 (Space.params space)
  in
  Printf.printf
    "\nSimLinux experiment space (down-scaled): %d runtime, %d boot-time, %d compile-time\n"
    (count Param.Runtime) (count Param.Boot_time) (count Param.Compile_time);
  Printf.printf "SimLinux log10(|space|) = %.1f\n" (Space.log10_cardinality space)
