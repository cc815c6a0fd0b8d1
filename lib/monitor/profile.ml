module Obs = Wayfinder_obs
module A = Wayfinder_analytics
module Json = A.Json

(* Span profiler over the JSONL obs traces (Sink.jsonl, kind "trace").

   Span events arrive in *end* order (a span is emitted when it closes),
   so a parent always follows its children in the stream.  The tree is
   rebuilt from that order plus the begin/end wall stamps: an incoming
   span adopts the maximal run of still-unparented spans that began
   after it began and ended before it ended, on the microsecond grid of
   the stamps.  Traces from recorders with a frozen wall clock (some
   tests) have all-equal stamps and degrade to a flat list — per-name
   totals, which is what reconciles against Driver.result.metrics, are
   order-independent and unaffected. *)

type clock = Wall | Virtual

type span = {
  name : string;
  began_wall : float;
  began_virtual : float;
  wall_s : float;
  virtual_s : float;
}

type node = {
  node_name : string;
  mutable count : int;
  mutable wall_total : float;
  mutable virtual_total : float;
  mutable children : node list;  (* reverse order of first appearance *)
}

type t = {
  spans : span list;  (* file order = end order *)
  roots : node list;
  events : int;  (* well-formed event lines of any type *)
  dropped : int;  (* undecodable lines (torn tails included) *)
}

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let parse_span j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let num k = Option.bind (Json.member k j) Json.to_float in
  match (str "name", num "wall_s", num "virtual_s") with
  | Some name, Some wall_s, Some virtual_s ->
    Some
      { name;
        began_wall = Option.value ~default:0. (num "began_wall_s");
        began_virtual = Option.value ~default:0. (num "began_virtual_s");
        wall_s;
        virtual_s }
  | _ -> None

let of_string s =
  match String.split_on_char '\n' s with
  | [] -> Error "empty trace"
  | header :: body -> (
    let ok =
      match Json.parse header with
      | Error _ -> false
      | Ok j ->
        Option.bind (Json.member "wayfinder_schema" j) Json.to_int
          = Some Obs.Sink.schema_version
        && Option.bind (Json.member "kind" j) Json.to_str = Some "trace"
    in
    match ok with
    | false -> Error "not a wayfinder trace: missing or foreign schema header"
    | true ->
      let spans = ref [] and events = ref 0 and dropped = ref 0 in
      List.iter
        (fun line ->
          if String.trim line <> "" then
            match Json.parse line with
            | Error _ -> incr dropped
            | Ok j -> (
              match Option.bind (Json.member "type" j) Json.to_str with
              | Some "span" -> (
                match parse_span j with
                | Some sp ->
                  incr events;
                  spans := sp :: !spans
                | None -> incr dropped)
              | Some ("count" | "sample" | "alert") -> incr events
              | Some _ | None -> incr dropped))
        body;
      let spans = List.rev !spans in
      (* Tree reconstruction from end order, see the header comment. *)
      let module Raw = struct
        type raw = { rspan : span; rkids : raw list }
      end in
      let open Raw in
      (* Stamps compare in whole microseconds, the recorder's grid: an
         end is [began + wall] rounded back onto it, since the float sum
         can land an ulp to either side of an equal end.  A span that
         lies wholly in the microsecond [sp] began in counts as ended
         before [sp] began: the after-the-fact virtual phases are such
         zero-length spans, often in the microsecond the next span
         opens. *)
      let micros x = Float.round (x *. 1e6) in
      let began s = micros s.began_wall and ended s = micros (s.began_wall +. s.wall_s) in
      let pending = ref [] in
      (* raw trees, most recently ended first *)
      List.iter
        (fun sp ->
          let contained p =
            began p.rspan >= began sp && ended p.rspan <= ended sp && ended p.rspan > began sp
          in
          let rec take acc = function
            | p :: rest when contained p -> take (p :: acc) rest
            | rest -> (acc, rest)
          in
          let kids, rest = take [] !pending in
          pending := { rspan = sp; rkids = kids } :: rest)
        spans;
      let raw_roots = List.rev !pending in
      (* Aggregate same-name siblings, preserving first-appearance order. *)
      let rec add siblings { rspan = sp; rkids = kids } =
        let node =
          match
            List.find_opt (fun n -> n.node_name = sp.name) !siblings
          with
          | Some n -> n
          | None ->
            let n =
              { node_name = sp.name; count = 0; wall_total = 0.;
                virtual_total = 0.; children = [] }
            in
            siblings := n :: !siblings;
            n
        in
        node.count <- node.count + 1;
        node.wall_total <- node.wall_total +. sp.wall_s;
        node.virtual_total <- node.virtual_total +. sp.virtual_s;
        let child_ref = ref node.children in
        List.iter (fun k -> add child_ref k) kids;
        node.children <- !child_ref
      in
      let roots_ref = ref [] in
      List.iter (fun r -> add roots_ref r) raw_roots;
      let rec orient n = { n with children = List.rev_map orient n.children } in
      let roots = List.rev_map orient !roots_ref in
      Ok { spans; roots; events = !events; dropped = !dropped })

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

let total clock n = match clock with Wall -> n.wall_total | Virtual -> n.virtual_total

let self clock n =
  total clock n
  -. List.fold_left (fun acc c -> acc +. total clock c) 0. n.children

type hotspot = {
  hot_name : string;
  hot_count : int;
  hot_self : float;
  hot_total : float;
}

(* Top-N by summed self time on [clock]; ties broken by name so the
   table is deterministic. *)
let hotspots t clock ~top =
  let tbl = Hashtbl.create 16 in
  let rec visit n =
    (match Hashtbl.find_opt tbl n.node_name with
    | Some h ->
      Hashtbl.replace tbl n.node_name
        { h with
          hot_count = h.hot_count + n.count;
          hot_self = h.hot_self +. self clock n;
          hot_total = h.hot_total +. total clock n }
    | None ->
      Hashtbl.add tbl n.node_name
        { hot_name = n.node_name; hot_count = n.count;
          hot_self = self clock n; hot_total = total clock n });
    List.iter visit n.children
  in
  List.iter visit t.roots;
  let all = Hashtbl.fold (fun _ h acc -> h :: acc) tbl [] in
  let sorted =
    List.sort
      (fun a b ->
        match compare b.hot_self a.hot_self with
        | 0 -> compare a.hot_name b.hot_name
        | c -> c)
      all
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | h :: rest -> h :: take (k - 1) rest
  in
  take top sorted

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let clock_to_string = function Wall -> "wall" | Virtual -> "virtual"

let si = Obs.Summary.si

let render_tree t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "%d spans in %d events (%d undecodable lines dropped)\n%-40s %8s %26s %26s\n"
       (List.length t.spans) t.events t.dropped "phase" "count"
       "wall total/self" "virtual total/self");
  let rec go depth n =
    Buffer.add_string buf
      (Printf.sprintf "%-40s %8d %12s %13s %12s %13s\n"
         (String.make (2 * depth) ' ' ^ n.node_name)
         n.count
         (si n.wall_total)
         (si (Float.max 0. (self Wall n)))
         (si n.virtual_total)
         (si (Float.max 0. (self Virtual n))));
    List.iter (go (depth + 1)) n.children
  in
  List.iter (go 0) t.roots;
  Buffer.contents buf

let render_hotspots t clock ~top =
  let buf = Buffer.create 512 in
  let hs = hotspots t clock ~top in
  let grand =
    List.fold_left (fun acc n -> acc +. total clock n) 0. t.roots
  in
  Buffer.add_string buf
    (Printf.sprintf "top %d by self %s time\n%-40s %8s %12s %12s %6s\n"
       (List.length hs) (clock_to_string clock) "phase" "count" "self" "total"
       "%");
  List.iter
    (fun h ->
      Buffer.add_string buf
        (Printf.sprintf "%-40s %8d %12s %12s %5.1f%%\n" h.hot_name h.hot_count
           (si (Float.max 0. h.hot_self))
           (si h.hot_total)
           (if grand > 0. then 100. *. Float.max 0. h.hot_self /. grand else 0.)))
    hs;
  Buffer.contents buf

(* Collapsed-stack output (one "a;b;c value" line per tree path, DFS
   order) for flamegraph renderers.  Values are self times in integer
   microseconds, clamped at 0. *)
let flamegraph t clock =
  let buf = Buffer.create 1024 in
  let rec go path n =
    let path = path @ [ n.node_name ] in
    let v = int_of_float (Float.max 0. (self clock n) *. 1e6) in
    if v > 0 || n.children = [] then
      Buffer.add_string buf
        (Printf.sprintf "%s %d\n" (String.concat ";" path) v);
    List.iter (go path) n.children
  in
  List.iter (go []) t.roots;
  Buffer.contents buf
