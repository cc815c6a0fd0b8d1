type event = {
  at : float;  (* completion time *)
  seq : int;  (* FIFO tie-break among equal [at] *)
  origin : float;  (* clock reading when the event was scheduled *)
  deltas : float list;  (* charge chain from [origin]; [] for absolute events *)
  run : unit -> unit;
}

type t = {
  mutable seconds : float;
  mutable observers : (float -> unit) list;
  (* Binary min-heap of pending events, ordered by (at, seq). *)
  mutable heap : event array;
  mutable size : int;
  mutable next_seq : int;
}

let dummy_event = { at = 0.; seq = -1; origin = 0.; deltas = []; run = Fun.id }

let create () =
  { seconds = 0.; observers = []; heap = Array.make 8 dummy_event; size = 0; next_seq = 0 }

let now t = t.seconds

let on_advance t f = t.observers <- t.observers @ [ f ]

let advance t dt =
  if dt < 0. then invalid_arg "Vclock.advance: negative duration";
  t.seconds <- t.seconds +. dt;
  List.iter (fun f -> f dt) t.observers

(* Set the clock to an absolute reading.  Unlike [advance t (x -. now t)]
   followed by float addition, this lands on [x] bit-exactly — which is
   what checkpoint resume and event completion need. *)
let advance_to t x =
  if x < t.seconds then invalid_arg "Vclock.advance_to: target is in the past";
  let dt = x -. t.seconds in
  t.seconds <- x;
  List.iter (fun f -> f dt) t.observers

(* ---------------- Discrete-event scheduler ---------------- *)

let earlier a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let push t ev =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy_event in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  (* Sift up. *)
  let i = ref (t.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    earlier t.heap.(!i) t.heap.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.heap.(parent) in
    t.heap.(parent) <- t.heap.(!i);
    t.heap.(!i) <- tmp;
    i := parent
  done

let pop t =
  if t.size = 0 then invalid_arg "Vclock: no pending events";
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- dummy_event;
  (* Sift down. *)
  let i = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && earlier t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && earlier t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest = !i then continue_ := false
    else begin
      let tmp = t.heap.(!smallest) in
      t.heap.(!smallest) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := !smallest
    end
  done;
  top

let schedule t ~at run =
  if Float.is_nan at then invalid_arg "Vclock.schedule: NaN completion time";
  if at < t.seconds then invalid_arg "Vclock.schedule: completion time is in the past";
  let ev = { at; seq = t.next_seq; origin = t.seconds; deltas = []; run } in
  t.next_seq <- t.next_seq + 1;
  push t ev;
  at

let schedule_chain t ~deltas run =
  List.iter
    (fun d ->
      if Float.is_nan d || d < 0. then
        invalid_arg "Vclock.schedule_chain: deltas must be non-negative")
    deltas;
  let at = List.fold_left ( +. ) t.seconds deltas in
  let ev = { at; seq = t.next_seq; origin = t.seconds; deltas; run } in
  t.next_seq <- t.next_seq + 1;
  push t ev;
  at

let run_next t =
  if t.size = 0 then false
  else begin
    let ev = pop t in
    (* When the clock has not moved since the event was scheduled, replay
       its charge chain delta by delta: observers see the exact same
       advance stream a synchronous caller would have produced (and the
       clock lands on [at] bit-exactly, since [at] was computed by the
       same left fold).  Otherwise jump straight to the completion time. *)
    if ev.deltas <> [] && ev.origin = t.seconds then List.iter (advance t) ev.deltas
    else advance_to t ev.at;
    ev.run ();
    true
  end
