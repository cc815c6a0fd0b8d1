type t = {
  now : unit -> float;
  mutable virtual_now : unit -> float;
  mutable sinks : Sink.t list;
  metrics : Metrics.t;
  (* Span name -> its two histogram keys, built once per name. *)
  keys : (string, string * string) Hashtbl.t;
}

let create ?(now = Unix.gettimeofday) ?(virtual_now = fun () -> 0.) ?(sinks = []) () =
  (* Wall stamps are offsets from recorder creation, not epoch times:
     durations are unaffected and trace files stay readable. *)
  let epoch = now () in
  { now = (fun () -> now () -. epoch); virtual_now; sinks; metrics = Metrics.create ();
    keys = Hashtbl.create 32 }

let null () = create ~now:(fun () -> 0.) ()

let set_virtual_now t f = t.virtual_now <- f

let snapshot t = Metrics.snapshot t.metrics

(* Wall stamps and span wall durations are whole microseconds, the
   resolution of Unix.gettimeofday: a trace writes them as short
   decimals, and the histograms take the same values, so a profile of
   the trace reconciles with them bit for bit. *)
let micros s = Float.round (s *. 1e6)

let stamp_at t raw = { Event.wall_s = micros raw /. 1e6; virtual_s = t.virtual_now () }
let stamp t = stamp_at t (t.now ())

let emit t e = List.iter (fun s -> Sink.emit s e) t.sinks

let incr t ?(by = 1.) ?(quiet = false) name =
  Metrics.incr t.metrics ~by name;
  if (not quiet) && t.sinks <> [] then
    emit t (Event.Count { name; delta = by; at = stamp t })

let observe t ?(quiet = false) name value =
  Metrics.observe t.metrics name value;
  if (not quiet) && t.sinks <> [] then emit t (Event.Sample { name; value; at = stamp t })

let alert t ~rule message =
  Metrics.incr t.metrics ("alerts." ^ rule);
  if t.sinks <> [] then emit t (Event.Alert { rule; message; at = stamp t })

type span = {
  span_name : string;
  span_attrs : Attr.t;
  span_began : Event.stamp;
  span_raw : float;  (* The unrounded clock reading [span_began] was made from. *)
}

let span_begin t ?(attrs = Attr.empty) name =
  let raw = t.now () in
  { span_name = name; span_attrs = attrs; span_began = stamp_at t raw; span_raw = raw }

let span_keys t name =
  match Hashtbl.find t.keys name with
  | keys -> keys
  | exception Not_found ->
    let keys = (name ^ ".wall_s", name ^ ".virtual_s") in
    Hashtbl.add t.keys name keys;
    keys

let record_span t ~name ~attrs ~began ~wall ~vrt =
  let wall_key, virtual_key = span_keys t name in
  (match wall with
  | Some w -> Metrics.observe t.metrics wall_key w
  | None -> ());
  (match vrt with
  | Some v -> Metrics.observe t.metrics virtual_key v
  | None -> ());
  if t.sinks <> [] then
    emit t
      (Event.Span
         { name;
           attrs;
           began;
           wall_duration_s = Option.value ~default:0. wall;
           virtual_duration_s = Option.value ~default:0. vrt })

(* Close [span] at the clock reading [raw]. *)
let span_end_at t attrs span raw =
  let wall = (micros raw -. micros span.span_raw) /. 1e6 in
  let vrt = t.virtual_now () -. span.span_began.Event.virtual_s in
  let attrs = match attrs with [] -> span.span_attrs | _ -> span.span_attrs @ attrs in
  record_span t ~name:span.span_name ~attrs
    ~began:span.span_began ~wall:(Some wall)
    ~vrt:(if vrt <> 0. then Some vrt else None)

let span_end t ?(attrs = Attr.empty) span = span_end_at t attrs span (t.now ())

let error_attrs = [ Attr.bool "error" true ]

let with_span t ?attrs name f =
  let span = span_begin t ?attrs name in
  match f () with
  | result ->
    span_end t span;
    result
  | exception exn ->
    span_end t ~attrs:error_attrs span;
    raise exn

(* The returned seconds are the raw difference of the two clock reads:
   callers fold it into their own accounting (the ledger's decide_s),
   where a microsecond grid would only lose precision. *)
let timed t ?attrs name f =
  let span = span_begin t ?attrs name in
  match f () with
  | result ->
    let raw = t.now () in
    span_end_at t [] span raw;
    (result, raw -. span.span_raw)
  | exception exn ->
    span_end t ~attrs:error_attrs span;
    raise exn

let emit_span t ?(attrs = Attr.empty) ?wall_s ?virtual_s name =
  record_span t ~name ~attrs ~began:(stamp t)
    ~wall:(Option.map (fun w -> micros w /. 1e6) wall_s)
    ~vrt:virtual_s

let flush t = List.iter Sink.flush t.sinks
