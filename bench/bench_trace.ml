(* Trace-driven search: single- vs multi-objective on a flash crowd
   (SimLinux/Nginx).

   Both modes search the same kernel space against the same stationary
   flash-crowd scenario and the same three measured objectives
   (throughput, p99 latency, peak memory).  The single-objective run
   scalarizes with the degenerate weights (1, 0, 0) — byte-identical to
   optimizing throughput alone, but every entry still records its full
   vector, so the winner's latency and memory are visible.  The
   multi-objective run uses equal weights and DeepTune with one
   regression pair per objective, and reports its Pareto archive.  A
   JSON dump of both is written for CI trending.

   Acceptance: the archive surfaces at least one configuration that
   strictly beats the throughput-only winner on p99 at equal-or-better
   memory — the trade-off a scalar throughput search cannot report. *)

module S = Wayfinder_simos
module P = Wayfinder_platform
module D = Wayfinder_deeptune

let iterations = ref 80
let seed = 2
let json_path = "bench_trace.json"

let flash_crowd () =
  S.Trace.flash_crowd ~window_s:1.0 ~windows:60 ~base:500. ~peak:1400. ~at:30 ~width:10

let objective_names = [ "throughput"; "p99"; "memory" ]

let spec () =
  match P.Objective.spec_of_names objective_names with
  | Ok spec -> spec
  | Error e -> failwith e

(* A fresh simulator and scenario per run: the scenario is stationary
   (stride 0), so every configuration replays the identical flash crowd
   and vectors are directly comparable. *)
let search ~algo ~scalarize =
  let sim = S.Sim_linux.create () in
  let scenario = P.Scenario.create ~stride:0 (flash_crowd ()) in
  let objectives = spec () in
  let target =
    P.Targets.of_sim_linux_trace sim ~app:S.App.Nginx ~scenario ~objectives ~scalarize ()
  in
  let algorithm =
    match algo with
    | `Deeptune -> D.Deeptune.algorithm (D.Deeptune.create ~seed target.P.Target.space)
    | `Multi ->
      D.Deeptune.algorithm
        (D.Deeptune.create ~seed
           ~objectives:{ D.Deeptune.spec = objectives; weights = [| 1.; 1.; 1. |] }
           target.P.Target.space)
  in
  P.Driver.run ~seed ~workers:4 ~target ~algorithm
    ~budget:(P.Driver.Iterations !iterations) ()

let vec_json v =
  Printf.sprintf "{\"throughput\":%.4f,\"p99\":%.6f,\"memory\":%.4f}" v.(0) v.(1) v.(2)

let run () =
  Bench_common.section
    "Trace: single- vs multi-objective search on a flash crowd (SimLinux/Nginx)";
  Printf.printf "flash crowd: 60 windows of 1 s, 500 req/s base, 1400 req/s burst;\n";
  Printf.printf "%d iterations per mode, workers=4, seed %d\n" !iterations seed;
  let single = search ~algo:`Deeptune ~scalarize:(P.Scalarize.Weighted_sum [| 1.; 0.; 0. |]) in
  let multi =
    search ~algo:`Multi ~scalarize:(P.Scalarize.Weighted_sum [| 1.; 1.; 1. |])
  in
  let winner =
    match single.P.Driver.best with
    | Some e -> e
    | None -> failwith "single-objective run found no best entry"
  in
  let winner_vec =
    match winner.P.History.objectives with
    | Some v -> v
    | None -> failwith "winner entry carries no objective vector"
  in
  Bench_common.subsection "throughput-only winner (weights 1,0,0)";
  Printf.printf "  entry #%d: throughput %.1f req/s, p99 %.4f s, memory %.1f MiB\n"
    winner.P.History.index winner_vec.(0) winner_vec.(1) winner_vec.(2);
  let front = P.Pareto.points multi.P.Driver.pareto in
  Bench_common.subsection
    (Printf.sprintf "multi-objective Pareto front (%d points, hypervolume proxy %.4f)"
       (List.length front)
       (P.Pareto.hypervolume_proxy multi.P.Driver.pareto));
  List.iter
    (fun (p : P.Pareto.point) ->
      let v = p.P.Pareto.objectives in
      Printf.printf "  #%-4d throughput %8.1f req/s   p99 %8.4f s   memory %7.1f MiB\n"
        p.P.Pareto.index v.(0) v.(1) v.(2))
    front;
  let dominating =
    List.filter
      (fun (p : P.Pareto.point) ->
        let v = p.P.Pareto.objectives in
        v.(1) < winner_vec.(1) && v.(2) <= winner_vec.(2))
      front
  in
  Printf.printf "\n%d front point(s) beat the throughput-only winner on p99 at\n"
    (List.length dominating);
  Printf.printf "equal-or-better memory\n";
  P.Durable.atomic_write_exn ~path:json_path
    (Printf.sprintf
       "{\"benchmark\":\"trace\",\"iterations\":%d,\"seed\":%d,\"objectives\":[%s],\n\
       \ \"single_winner\":%s,\n\
       \ \"pareto\":[\n  %s\n\
       \ ],\n\
       \ \"dominating_points\":%d}\n"
       !iterations seed
       (String.concat "," (List.map (Printf.sprintf "%S") objective_names))
       (vec_json winner_vec)
       (String.concat ",\n  "
          (List.map (fun (p : P.Pareto.point) -> vec_json p.P.Pareto.objectives) front))
       (List.length dominating));
  Printf.printf "dump written to %s\n" json_path;
  Bench_common.check (dominating <> [])
    "pareto mode surfaces a config dominating the throughput-only winner on p99/memory";
  Bench_common.timing_footer ~label:"multi" multi
