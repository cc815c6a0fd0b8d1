(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation (see DESIGN.md for the per-experiment index).

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig6 tab2    # selected experiments
     dune exec bench/main.exe -- --runs 5 all # 5 runs per averaged curve
     dune exec bench/main.exe -- list         # available experiments *)

let experiments =
  [ ("fig1", "Linux compile-time configuration space over time", Bench_fig1.run);
    ("tab1", "configuration space census for Linux 6.0", Bench_tab1.run);
    ("fig2", "Nginx throughput for 800 random configurations", Bench_fig2.run);
    ("fig5", "cross-similarity of per-app parameter importances", Bench_fig5.run);
    ("fig6", "performance/crash evolution over 250 iterations", Bench_fig6.run);
    ("tab2", "best configurations found (relative performance)", Bench_tab2.run);
    ("fig7", "DeepTune vs Unicorn scaling", Bench_fig7.run);
    ("fig8", "update time vs evaluation time", Bench_fig8.run);
    ("tab3", "DeepTune prediction accuracy", Bench_tab3.run);
    ("fig9", "Unikraft/Nginx: Wayfinder vs random vs Bayesian", Bench_fig9.run);
    ("fig10", "RISC-V memory footprint search", Bench_fig10.run);
    ("fig11", "throughput-memory co-optimization on Cozart", Bench_fig11.run);
    ("tab4", "top-5 throughput-memory results", Bench_tab4.run);
    ("workers", "speedup vs virtual evaluation slots (batched engine)", Bench_workers.run);
    ("cache", "builds charged vs shared image-cache capacity", Bench_cache.run);
    ("sensitivity", "workload sensitivity of the found optimum (§3.5)", Bench_sensitivity.run);
    ("trace", "single- vs multi-objective search on a flash-crowd trace", Bench_trace.run);
    ("transfer", "registry round-trip and warm-start sample efficiency", Bench_transfer.run);
    ("micro", "Domain-scaling speedup of the hot kernels (bench_micro.json)", Bench_micro.run);
    ("ablation", "DeepTune design-choice ablations", Bench_ablation.run) ]

let list_experiments () =
  Printf.printf "available experiments:\n";
  List.iter (fun (id, desc, _) -> Printf.printf "  %-9s %s\n" id desc) experiments

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse selected = function
    | [] -> List.rev selected
    | "--runs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some runs when runs > 0 ->
        Bench_fig6.runs := runs;
        Bench_fig9.runs := runs;
        Bench_fig10.runs := runs
      | Some _ | None -> prerr_endline "ignoring invalid --runs value");
      parse selected rest
    | "list" :: _ ->
      list_experiments ();
      exit 0
    | "all" :: rest -> parse selected rest
    | name :: rest ->
      if List.exists (fun (id, _, _) -> id = name) experiments then parse (name :: selected) rest
      else begin
        Printf.eprintf "unknown experiment %S\n" name;
        list_experiments ();
        exit 1
      end
  in
  let selected = parse [] args in
  let to_run =
    match selected with
    | [] -> experiments
    | names -> List.filter (fun (id, _, _) -> List.mem id names) experiments
  in
  Printf.printf "Wayfinder benchmark harness — regenerating %d experiment(s)\n"
    (List.length to_run);
  let started = Unix.gettimeofday () in
  List.iter
    (fun (id, _, f) ->
      let t0 = Unix.gettimeofday () in
      f ();
      Printf.printf "\n[%s finished in %.1fs]\n%!" id (Unix.gettimeofday () -. t0))
    to_run;
  Printf.printf "\nAll done in %.1fs.\n" (Unix.gettimeofday () -. started)
