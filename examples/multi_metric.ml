(* Multi-metric specialization — the §3.2 extension: one DTM with a
   regression pair per metric, eq. 3 applied per metric, weighted-average
   ranking.  Here: co-optimize Nginx throughput and image memory on
   SimLinux.  The target reports both as an objective vector; its scalar
   value is their weighted sum in score space, so the driver's best entry
   is the best weighted trade-off, and the Pareto archive keeps every
   non-dominated one.

   Run with:  dune exec examples/multi_metric.exe *)

module S = Wayfinder_simos
module P = Wayfinder_platform
module D = Wayfinder_deeptune
module CS = Wayfinder_configspace

let iterations = 150
let weights = [| 0.6; 0.4 |]

let () =
  let sim = S.Sim_linux.create () in
  let space = S.Sim_linux.space sim in
  let spec = [| P.Metric.throughput; P.Metric.memory_mb |] in
  let scalarize = P.Scalarize.Weighted_sum weights in
  let target =
    P.Target.make ~name:"sim-linux/nginx throughput+memory" ~space
      ~metric:(P.Metric.make ~name:"score" ~unit_name:"score" ())
      ~objective_spec:spec
      (fun ~trial config ->
        let o = S.Sim_linux.evaluate sim ~app:S.App.Nginx ~trial config in
        let d = o.S.Sim_linux.durations in
        let value, objectives =
          match o.S.Sim_linux.result with
          | Ok throughput ->
            let vec = [| throughput; S.Sim_linux.memory_footprint_mb sim config |] in
            (Ok (P.Scalarize.apply scalarize ~spec vec), vec)
          | Error stage -> (Error (P.Targets.failure_of_stage stage), [||])
        in
        { P.Target.value;
          build_s = d.S.Sim_linux.build_s;
          boot_s = d.S.Sim_linux.boot_s;
          run_s = d.S.Sim_linux.run_s;
          objectives })
  in
  let options =
    { D.Deeptune.default_options with favor = Some CS.Param.Runtime; favor_weak = 0.02 }
  in
  let dt = D.Deeptune.create ~options ~seed:6 ~objectives:{ D.Deeptune.spec; weights } space in
  let r =
    P.Driver.run ~seed:6 ~target ~algorithm:(D.Deeptune.algorithm dt)
      ~budget:(P.Driver.Iterations iterations) ()
  in
  let default = CS.Space.defaults space in
  let default_throughput = S.Sim_linux.default_value sim ~app:S.App.Nginx () in
  let default_memory = S.Sim_linux.memory_footprint_mb sim default in
  Printf.printf "default: %.0f req/s at %.1f MB\n" default_throughput default_memory;
  (match r.P.Driver.best with
  | Some { P.History.config; objectives = Some vec; _ } ->
    Printf.printf "best weighted trade-off after %d iterations (crash rate %.2f):\n" iterations
      (P.History.crash_rate r.P.Driver.history);
    Printf.printf "  %.0f req/s (%+.1f%%) at %.1f MB (%+.1f MB)\n" vec.(0)
      ((vec.(0) /. default_throughput -. 1.) *. 100.)
      vec.(1) (vec.(1) -. default_memory);
    Printf.printf "  %d non-dominated trade-offs in the Pareto archive\n"
      (List.length (P.Pareto.points r.P.Driver.pareto));
    Printf.printf "\nchanged parameters:\n";
    List.iteri
      (fun i (name, _, v) -> if i < 12 then Printf.printf "  %-40s = %s\n" name v)
      (CS.Space.diff space default config)
  | Some _ | None -> print_endline "no valid configuration found");
  Printf.printf
    "\n(one model, two regression pairs; the scoring phase applies eq. 3 per\n\
    \ metric and takes the weighted average — §3.2's multi-metric extension)\n"
