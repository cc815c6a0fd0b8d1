module Y = Wayfinder_yamlite.Yamlite

type t = {
  job_name : string;
  os : string;
  app : string;
  metric : string;
  maximize : bool;
  iterations : int option;
  time_budget_s : float option;
  seed : int;
  favor : Param.stage option;
  space : Space.t;
}

exception Schema_error of string

let schema_fail fmt = Printf.ksprintf (fun s -> raise (Schema_error s)) fmt

let required doc key =
  match Y.find_opt doc key with
  | Some v -> v
  | None -> schema_fail "missing required field %S" key

let get_string_field doc key =
  match required doc key with
  | Y.String s -> s
  | v -> schema_fail "field %S must be a string, got %s" key (Y.to_string v)

let parse_param doc =
  let name = get_string_field doc "name" in
  let stage =
    match Y.find_opt doc "stage" with
    | None -> Param.Runtime
    | Some (Y.String s) -> (
      match Param.stage_of_string s with
      | Some st -> st
      | None -> schema_fail "parameter %s: unknown stage %S" name s)
    | Some _ -> schema_fail "parameter %s: stage must be a string" name
  in
  let type_name = get_string_field doc "type" in
  let default = Y.find_opt doc "default" in
  match type_name with
  | "bool" ->
    let d =
      match default with
      | Some (Y.Bool b) -> b
      | Some (Y.Int 0) -> false
      | Some (Y.Int 1) -> true
      | None -> false
      | Some _ -> schema_fail "parameter %s: bool default expected" name
    in
    Param.bool_param ~stage name d
  | "tristate" ->
    let d =
      match default with
      | Some (Y.String s) -> (
        match s with
        | "n" -> 0
        | "m" -> 1
        | "y" -> 2
        | _ -> schema_fail "parameter %s: tristate default must be n/m/y" name)
      | Some (Y.Int i) when i >= 0 && i <= 2 -> i
      | None -> 0
      | Some _ -> schema_fail "parameter %s: tristate default expected" name
    in
    Param.tristate_param ~stage name d
  | "int" | "hex" ->
    let int_field key fallback =
      match Y.find_opt doc key with
      | Some (Y.Int i) -> i
      | None -> (
        match fallback with
        | Some f -> f
        | None -> schema_fail "parameter %s: missing %S" name key)
      | Some _ -> schema_fail "parameter %s: %S must be an int" name key
    in
    let lo = int_field "min" None in
    let hi = int_field "max" None in
    let d = int_field "default" (Some lo) in
    let log_scale =
      match Y.find_opt doc "log" with
      | Some (Y.Bool b) -> b
      | None -> false
      | Some _ -> schema_fail "parameter %s: log must be a bool" name
    in
    if d < lo || d > hi then schema_fail "parameter %s: default outside [min, max]" name;
    Param.int_param ~stage ~log_scale name ~lo ~hi ~default:d
  | "categorical" | "string" ->
    let values =
      match Y.find_opt doc "values" with
      | Some (Y.List items) ->
        Array.of_list
          (List.map
             (fun v ->
               match v with
               | Y.String s -> s
               | Y.Int i -> string_of_int i
               | _ -> schema_fail "parameter %s: values must be strings" name)
             items)
      | None -> schema_fail "parameter %s: categorical needs a values list" name
      | Some _ -> schema_fail "parameter %s: values must be a list" name
    in
    if Array.length values = 0 then schema_fail "parameter %s: empty values list" name;
    let d =
      match default with
      | None -> 0
      | Some (Y.String s) -> (
        let rec find i =
          if i >= Array.length values then
            schema_fail "parameter %s: default %S not in values" name s
          else if String.equal values.(i) s then i
          else find (i + 1)
        in
        find 0)
      | Some _ -> schema_fail "parameter %s: categorical default must be a string" name
    in
    Param.categorical_param ~stage name values ~default:d
  | other -> schema_fail "parameter %s: unknown type %S" name other

let of_yaml doc =
  let job_name = get_string_field doc "name" in
  let os = get_string_field doc "os" in
  let app = get_string_field doc "app" in
  let metric = get_string_field doc "metric" in
  let maximize =
    match Y.find_opt doc "maximize" with
    | Some (Y.Bool b) -> b
    | None -> true
    | Some _ -> schema_fail "maximize must be a bool"
  in
  let iterations =
    match Y.find_opt doc "iterations" with
    | Some (Y.Int i) -> Some i
    | None -> None
    | Some _ -> schema_fail "iterations must be an int"
  in
  let time_budget_s =
    match Y.find_opt doc "time_budget_s" with
    | Some (Y.Int i) -> Some (float_of_int i)
    | Some (Y.Float f) -> Some f
    | None -> None
    | Some _ -> schema_fail "time_budget_s must be a number"
  in
  let seed =
    match Y.find_opt doc "seed" with
    | Some (Y.Int i) -> i
    | None -> 0
    | Some _ -> schema_fail "seed must be an int"
  in
  let favor =
    match Y.find_opt doc "favor" with
    | None -> None
    | Some (Y.String s) -> (
      match Param.stage_of_string s with
      | Some st -> Some st
      | None -> schema_fail "unknown stage %S in favor" s)
    | Some _ -> schema_fail "favor must be a string"
  in
  let params =
    match Y.find_opt doc "params" with
    | Some (Y.List items) -> List.map parse_param items
    | None | Some _ -> schema_fail "params must be a list of parameter mappings"
  in
  let space = Space.create params in
  let space =
    match Y.find_opt doc "fixed" with
    | None -> space
    | Some (Y.List items) ->
      let pins =
        List.map
          (fun item ->
            let name = get_string_field item "name" in
            let value_str =
              match Y.find_opt item "value" with
              | Some (Y.String s) -> s
              | Some (Y.Int i) -> string_of_int i
              | Some (Y.Bool b) -> if b then "1" else "0"
              | None -> schema_fail "fixed entry %s: missing value" name
              | Some _ -> schema_fail "fixed entry %s: scalar value expected" name
            in
            let idx =
              try Space.index_of space name
              with Not_found -> schema_fail "fixed entry %s: unknown parameter" name
            in
            let kind = (Space.param space idx).Param.kind in
            match Param.value_of_string kind value_str with
            | Some v -> (name, v)
            | None -> schema_fail "fixed entry %s: invalid value %S" name value_str)
          items
      in
      Space.fix space pins
    | Some _ -> schema_fail "fixed must be a list"
  in
  { job_name; os; app; metric; maximize; iterations; time_budget_s; seed; favor; space }

let parse text = of_yaml (Y.parse text)
let load path = of_yaml (Y.parse_file path)

let param_to_yaml (p : Param.t) =
  let base =
    [ ("name", Y.String p.Param.name);
      ("stage", Y.String (Param.stage_to_string p.Param.stage)) ]
  in
  let rest =
    match p.Param.kind with
    | Param.Kbool ->
      [ ("type", Y.String "bool");
        ("default", Y.Bool (match p.Param.default with Param.Vbool b -> b | _ -> false)) ]
    | Param.Ktristate ->
      [ ("type", Y.String "tristate");
        ("default", Y.Int (match p.Param.default with Param.Vtristate t -> t | _ -> 0)) ]
    | Param.Kint { lo; hi; log_scale } ->
      [ ("type", Y.String "int"); ("min", Y.Int lo); ("max", Y.Int hi);
        ("log", Y.Bool log_scale);
        ("default", Y.Int (match p.Param.default with Param.Vint i -> i | _ -> lo)) ]
    | Param.Kcategorical choices ->
      [ ("type", Y.String "categorical");
        ("values", Y.List (Array.to_list (Array.map (fun s -> Y.String s) choices)));
        ( "default",
          Y.String
            (match p.Param.default with
            | Param.Vcat i when i < Array.length choices -> choices.(i)
            | _ -> choices.(0)) ) ]
  in
  Y.Map (base @ rest)

let to_yaml t =
  let space = t.space in
  let params =
    Array.to_list
      (Array.map param_to_yaml (Space.params space))
  in
  let fixed =
    let acc = ref [] in
    Array.iteri
      (fun i p ->
        match Space.fixed_value space i with
        | None -> ()
        | Some v ->
          acc :=
            Y.Map
              [ ("name", Y.String p.Param.name);
                ("value", Y.String (Param.value_to_string p.Param.kind v)) ]
            :: !acc)
      (Space.params space);
    List.rev !acc
  in
  let base =
    [ ("name", Y.String t.job_name); ("os", Y.String t.os); ("app", Y.String t.app);
      ("metric", Y.String t.metric); ("maximize", Y.Bool t.maximize); ("seed", Y.Int t.seed) ]
  in
  let opt =
    List.concat
      [ (match t.iterations with Some i -> [ ("iterations", Y.Int i) ] | None -> []);
        (match t.time_budget_s with Some s -> [ ("time_budget_s", Y.Float s) ] | None -> []);
        (match t.favor with
        | Some st -> [ ("favor", Y.String (Param.stage_to_string st)) ]
        | None -> []);
        (if fixed = [] then [] else [ ("fixed", Y.List fixed) ]);
        [ ("params", Y.List params) ] ]
  in
  Y.Map (base @ opt)

(* Simulator parameter [i] under the job, and its pin if it has one.  An
   explorable int takes the job's range and default, keeping the
   simulator's stage and log scale.  A categorical list of one value pins
   it; a list of all the simulator's values, in any order, keeps it
   explorable with the job's default mapped by name.  A parameter the job
   does not list is pinned to its default. *)
let under job sim i (p : Param.t) =
  match Space.index_of job.space p.Param.name with
  | exception Not_found -> Ok (p, Some p.Param.default)
  | j -> (
    let q = Space.param job.space j in
    let with_default kind default =
      Param.make ?description:p.Param.description ~name:p.Param.name ~stage:p.Param.stage ~kind
        ~default ()
    in
    match (Space.fixed_value job.space j, p.Param.kind, q.Param.kind, q.Param.default) with
    | Some v, _, _, _ -> Ok (p, Some v)
    | None, Param.Kint { lo; hi; log_scale }, Param.Kint { lo = job_lo; hi = job_hi; _ }, d ->
      if job_lo < lo || job_hi > hi then
        Error
          (Printf.sprintf "job parameter %s: range [%d, %d] is not inside the simulator's [%d, %d]"
             p.Param.name job_lo job_hi lo hi)
      else
        Ok
          ( with_default (Param.Kint { lo = job_lo; hi = job_hi; log_scale }) d,
            Space.fixed_value sim i )
    | None, Param.Kcategorical values, Param.Kcategorical job_values, Param.Vcat d -> (
      let all =
        Array.length job_values = Array.length values
        && Array.for_all (fun v -> Array.mem v job_values) values
      in
      match (job_values, Array.find_index (String.equal job_values.(d)) values) with
      | [| _ |], Some k -> Ok (p, Some (Param.Vcat k))
      | _, Some k when all ->
        Ok (with_default p.Param.kind (Param.Vcat k), Space.fixed_value sim i)
      | _ ->
        let list vs = String.concat ", " (Array.to_list vs) in
        Error
          (Printf.sprintf
             "job parameter %s: values [%s] are neither one of the simulator's [%s] nor all of \
              them"
             p.Param.name (list job_values) (list values)))
    | None, _, _, _ -> Ok (p, Space.fixed_value sim i))

let restrict job sim =
  let params = Array.mapi (under job sim) (Space.params sim) in
  match Array.find_map (function Error e -> Some e | Ok _ -> None) params with
  | Some e -> Error e
  | None -> (
    let params = Array.to_list (Array.map Result.get_ok params) in
    let pins =
      List.filter_map (fun ((p : Param.t), pin) -> Option.map (fun v -> (p.Param.name, v)) pin) params
    in
    match Space.fix (Space.create (List.map fst params)) pins with
    | space -> Ok space
    | exception Invalid_argument m -> Error m)
