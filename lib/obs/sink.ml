type t = { emit : Event.t -> unit; flush : unit -> unit }

let make ?(flush = fun () -> ()) ~emit () = { emit; flush }

let emit t e = t.emit e
let flush t = t.flush ()

(* Every JSONL artifact the platform writes opens with a self-describing
   schema line, so readers can reject files from a different era with a
   typed error instead of a parse crash further down. *)
let schema_version = 1

let schema_header ~kind =
  Printf.sprintf "{\"wayfinder_schema\":%d,\"kind\":%s}" schema_version
    (Attr.json_of_value (Attr.String kind))

(* Each event is rendered into one reused buffer and handed on from
   there: no intermediate strings per field. *)
let line_writer output =
  let buf = Buffer.create 512 in
  fun e ->
    Buffer.clear buf;
    Event.add_json buf e;
    Buffer.add_char buf '\n';
    output buf

let jsonl ?(flush = fun () -> ()) write =
  write (schema_header ~kind:"trace" ^ "\n");
  { emit = line_writer (fun buf -> write (Buffer.contents buf)); flush }

let jsonl_channel oc =
  output_string oc (schema_header ~kind:"trace" ^ "\n");
  { emit = line_writer (Buffer.output_buffer oc); flush = (fun () -> Stdlib.flush oc) }

module Memory = struct
  type store = {
    capacity : int;
    ring : Event.t option array;
    mutable next : int;  (* total events ever stored *)
    mutable n_dropped : int;
  }

  let create ?(capacity = 4096) () =
    if capacity <= 0 then invalid_arg "Sink.Memory.create: capacity must be positive";
    { capacity; ring = Array.make capacity None; next = 0; n_dropped = 0 }

  let sink store =
    { emit =
        (fun e ->
          if store.next >= store.capacity then store.n_dropped <- store.n_dropped + 1;
          store.ring.(store.next mod store.capacity) <- Some e;
          store.next <- store.next + 1);
      flush = (fun () -> ()) }

  let length store = min store.next store.capacity

  let events store =
    let n = length store in
    let first = store.next - n in
    List.init n (fun i ->
        match store.ring.((first + i) mod store.capacity) with
        | Some e -> e
        | None -> assert false)

  let dropped store = store.n_dropped

  let clear store =
    Array.fill store.ring 0 store.capacity None;
    store.next <- 0;
    store.n_dropped <- 0
end
