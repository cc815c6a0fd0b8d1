module Trace = Wayfinder_simos.Trace

type t = {
  trace : Trace.t;
  stride : int;
  span : int;
  mutable cursor : int;
}

let create ?(stride = 0) ?span ?(cursor = 0) trace =
  if stride < 0 then invalid_arg "Scenario.create: negative stride";
  if cursor < 0 then invalid_arg "Scenario.create: negative cursor";
  let span = Option.value span ~default:(Array.length trace.Trace.loads) in
  if span < 0 || (span = 0 && Array.length trace.Trace.loads > 0) then
    invalid_arg "Scenario.create: span must be positive";
  { trace; stride; span; cursor }

let cursor t = t.cursor

let set_cursor t c =
  if c < 0 then invalid_arg "Scenario.set_cursor: negative cursor";
  t.cursor <- c

let advance t = t.cursor <- t.cursor + t.stride

(* Euclidean modulo: always in [0, n).  OCaml's [mod] truncates toward
   zero, so a negative dividend yields a negative remainder — an
   out-of-bounds index if it ever reached [Array.get].  The cursor is
   validated non-negative on entry, but slice stays total anyway so a
   future caller can't reintroduce the crash. *)
let emod a n =
  let r = a mod n in
  if r < 0 then r + n else r

let slice t =
  let n = Array.length t.trace.Trace.loads in
  if n = 0 then t.trace
  else
    { t.trace with
      Trace.loads = Array.init t.span (fun i -> t.trace.Trace.loads.(emod (t.cursor + i) n))
    }
