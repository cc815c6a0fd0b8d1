type spec = Metric.t array

let builtin = function
  | "throughput" -> Some (Metric.make ~name:"throughput" ~unit_name:"req/s" ())
  | "p50" -> Some (Metric.make ~maximize:false ~name:"p50" ~unit_name:"s" ())
  | "p95" -> Some (Metric.make ~maximize:false ~name:"p95" ~unit_name:"s" ())
  | "p99" -> Some (Metric.make ~maximize:false ~name:"p99" ~unit_name:"s" ())
  | "memory" -> Some (Metric.make ~maximize:false ~name:"memory" ~unit_name:"MiB" ())
  | _ -> None

let spec_of_names names =
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | name :: rest -> (
      match builtin name with
      | Some m -> go (m :: acc) rest
      | None ->
        Error
          (Printf.sprintf
             "unknown objective %S (known: throughput, p50, p95, p99, memory)" name))
  in
  go [] names

let scores spec v =
  if Array.length spec <> Array.length v then
    invalid_arg "Objective.scores: spec/vector length mismatch";
  Array.mapi (fun i x -> Metric.score spec.(i) x) v

let dominates spec a b =
  let sa = scores spec a and sb = scores spec b in
  let ge = ref true and gt = ref false in
  Array.iteri
    (fun i x ->
      if x < sb.(i) then ge := false;
      if x > sb.(i) then gt := true)
    sa;
  !ge && !gt

let float_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let equal_vec a b = Array.length a = Array.length b && Array.for_all2 float_eq a b
