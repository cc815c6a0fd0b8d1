module A = Wayfinder_analytics

(* Follow-mode ledger polling over {!A.Ledger}'s incremental reader.
   Each {!step} reopens the file, seeks to the first unconsumed byte,
   reads to EOF and feeds every newly-completed line — a line is
   consumed only once its terminating '\n' is on disk, so a writer
   killed mid-record never yields a half-parsed row (it stays pending
   until the file grows past it or forever). *)

type seal = A.Ledger.seal =
  | Unsealed
  | Sealed
  | Sealed_unverified

type t = { path : string; mutable reader : A.Ledger.reader }

type step = {
  rows : A.Ledger.row list;
  drops : A.Ledger.drop list;
  truncated : bool;
}

let create path = { path; reader = A.Ledger.reader () }

let resume ?(rows_read = 0) ~path ~offset ~meta () =
  { path; reader = A.Ledger.resume_reader ~rows_read ~offset meta }

let meta t = A.Ledger.reader_meta t.reader
let seal t = A.Ledger.reader_seal t.reader
let offset t = A.Ledger.reader_offset t.reader
let rows_read t = A.Ledger.reader_rows t.reader
let dropped t = A.Ledger.reader_drops t.reader

let ( let* ) = Result.bind

let step t =
  match
    In_channel.with_open_bin t.path (fun ic ->
        let truncated = In_channel.length ic < Int64.of_int (offset t) in
        if truncated then t.reader <- A.Ledger.reader ();
        In_channel.seek ic (Int64.of_int (offset t));
        (* Read to EOF rather than a length measured up front: the file
           may shrink in between. *)
        (truncated, In_channel.input_all ic))
  with
  | exception Sys_error msg -> Error (A.Ledger.Malformed msg)
  | truncated, chunk ->
    (* Only lines whose '\n' is present are fed; the final newline-less
       fragment stays on disk for the next poll. *)
    let rec go from =
      match String.index_from_opt chunk from '\n' with
      | None -> Ok ()
      | Some nl ->
        let* () = A.Ledger.feed t.reader (String.sub chunk from (nl - from)) in
        go (nl + 1)
    in
    let* () = go 0 in
    let rows, drops = A.Ledger.take t.reader in
    Ok { rows; drops; truncated }
