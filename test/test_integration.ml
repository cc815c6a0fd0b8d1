(* End-to-end integration: the full Wayfinder pipeline across libraries.

   1. probe the simulated /proc/sys to infer the runtime space (§3.4);
   2. serialise it to a YAML job file and read it back;
   3. run a DeepTune search through the platform driver on that space;
   4. render the run report;
   5. kconfig: generate a synthetic tree and extract its typed
      compile-time space. *)

module S = Wayfinder_simos
module P = Wayfinder_platform
module D = Wayfinder_deeptune
module CS = Wayfinder_configspace
module K = Wayfinder_kconfig
module Y = Wayfinder_yamlite.Yamlite

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= hn && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_probe_to_job_to_search () =
  let sim = S.Sim_linux.create () in
  (* 1. Infer the runtime space from the pseudo-filesystem. *)
  let report = CS.Probe.probe (S.Sim_linux.sysfs sim) in
  Alcotest.(check bool) "probe finds the runtime space" true
    (List.length report.CS.Probe.probed > 50);
  (* 2. Round-trip through a YAML job file. *)
  let job =
    { CS.Jobfile.job_name = "integration";
      os = "sim-linux";
      app = "nginx";
      metric = "throughput";
      maximize = true;
      iterations = Some 40;
      time_budget_s = None;
      seed = 5;
      favor = Some CS.Param.Runtime;
      space = CS.Space.create report.CS.Probe.probed }
  in
  let reloaded = CS.Jobfile.of_yaml (Y.parse (Y.to_string (CS.Jobfile.to_yaml job))) in
  Alcotest.(check int) "space survives the YAML roundtrip"
    (CS.Space.size job.CS.Jobfile.space)
    (CS.Space.size reloaded.CS.Jobfile.space);
  (* 3. Search the probed space.  Probed parameters are a subset of the
     simulator's, so pin everything else at its default. *)
  let sim_space = S.Sim_linux.space sim in
  let pins =
    Array.to_list (CS.Space.params sim_space)
    |> List.filter_map (fun p ->
           if CS.Space.mem reloaded.CS.Jobfile.space p.CS.Param.name then None
           else Some (p.CS.Param.name, p.CS.Param.default))
  in
  let search_space = CS.Space.fix sim_space pins in
  let target =
    { (P.Targets.of_sim_linux sim ~app:S.App.Nginx) with P.Target.space = search_space }
  in
  let dt =
    D.Deeptune.create
      ~options:{ D.Deeptune.default_options with favor = Some CS.Param.Runtime }
      ~seed:reloaded.CS.Jobfile.seed search_space
  in
  let result =
    P.Driver.run ~seed:reloaded.CS.Jobfile.seed ~target ~algorithm:(D.Deeptune.algorithm dt)
      ~budget:(P.Driver.Iterations 40) ()
  in
  Alcotest.(check int) "search ran to budget" 40 result.P.Driver.iterations;
  Alcotest.(check bool) "found a valid configuration" true
    (P.History.best result.P.Driver.history <> None);
  (* 4. The report renders with the essentials. *)
  let default_v = S.Sim_linux.default_value sim ~app:S.App.Nginx () in
  let text =
    P.Report.to_text
      (P.Report.of_result ~default:default_v ~algorithm:"deeptune" ~target result)
  in
  Alcotest.(check bool) "report names the target" true (contains text "sim-linux/nginx");
  Alcotest.(check bool) "report shows the crash rate" true (contains text "crash rate")

let test_kconfig_to_configspace_pipeline () =
  (* Synthetic tree -> descriptors -> typed space, at a hundredth of Table 1. *)
  let profile =
    { K.Synthetic.linux_6_0 with
      n_bool = 75; n_tristate = 100; n_string = 1; n_hex = 1; n_int = 34 }
  in
  let tree = K.Synthetic.generate profile in
  let params = CS.Space.of_kconfig (K.Space.descriptors tree) in
  let space = CS.Space.create params in
  Alcotest.(check int) "one parameter per entry" (List.length (K.Ast.entries tree))
    (CS.Space.size space);
  (* Random typed configurations stay within their kconfig-derived domains. *)
  let rng = Wayfinder_tensor.Rng.create 6 in
  for _ = 1 to 20 do
    Alcotest.(check (list (pair int string))) "typed config valid" []
      (CS.Space.validate space (CS.Space.random space rng))
  done

let test_search_over_kconfig_space () =
  (* The memory target of Fig. 10 exercised end-to-end at test scale. *)
  let rv = S.Sim_riscv.create ~n_options:60 () in
  let target = P.Targets.of_sim_riscv rv in
  let options =
    { D.Deeptune.default_options with
      favor = Some CS.Param.Compile_time;
      favor_strong = 0.12;
      favor_weak = 0.;
      warmup = 5 }
  in
  let dt = D.Deeptune.create ~options ~seed:2 (S.Sim_riscv.space rv) in
  let result =
    P.Driver.run ~seed:2 ~target ~algorithm:(D.Deeptune.algorithm dt)
      ~budget:(P.Driver.Virtual_seconds (3600. *. 2.)) ()
  in
  match P.History.best_value result.P.Driver.history with
  | Some best ->
    Alcotest.(check bool)
      (Printf.sprintf "found a smaller image (%.1f MB)" best)
      true
      (best < S.Sim_riscv.default_memory_mb rv)
  | None -> Alcotest.fail "no bootable image found"

let () =
  Alcotest.run "integration"
    [ ( "pipeline",
        [ Alcotest.test_case "probe -> job file -> search -> report" `Slow
            test_probe_to_job_to_search;
          Alcotest.test_case "kconfig -> typed space" `Quick
            test_kconfig_to_configspace_pipeline;
          Alcotest.test_case "memory search over a kconfig-style space" `Slow
            test_search_over_kconfig_space ] ) ]
