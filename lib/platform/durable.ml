(* Crash-safe storage with pluggable backends.  See the .mli for the
   protocol contract and DESIGN.md §14 for the durability model. *)

type io_error = { op : string; path : string; reason : string }

exception Io_error of io_error

let io_error_to_string e = Printf.sprintf "%s: %s: %s" e.op e.path e.reason

type backend = {
  name : string;
  read : string -> string;
  write : string -> string -> unit;
  append : string -> string -> unit;
  fsync : string -> unit;
  rename : src:string -> dst:string -> unit;
  fsync_dir : string -> unit;
  remove : string -> unit;
  exists : string -> bool;
}

(* ------------------------------------------------------------------ *)
(* Real filesystem                                                     *)
(* ------------------------------------------------------------------ *)

let fail op path reason = raise (Io_error { op; path; reason })

let wrap op path f =
  try f () with
  | Unix.Unix_error (err, _, _) -> fail op path (Unix.error_message err)
  | Sys_error msg -> fail op path msg

let write_all fd path s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    match Unix.write_substring fd s !written (n - !written) with
    | 0 -> fail "write" path "zero-length write"
    | k -> written := !written + k
  done

let fs_open_write path flags =
  wrap "open" path (fun () -> Unix.openfile path flags 0o644)

let fs =
  { name = "fs";
    read =
      (fun path ->
        wrap "read" path (fun () ->
            In_channel.with_open_bin path In_channel.input_all));
    write =
      (fun path data ->
        let fd = fs_open_write path Unix.[ O_WRONLY; O_CREAT; O_TRUNC ] in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> wrap "write" path (fun () -> write_all fd path data)));
    append =
      (fun path data ->
        let fd = fs_open_write path Unix.[ O_WRONLY; O_CREAT; O_APPEND ] in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> wrap "append" path (fun () -> write_all fd path data)));
    fsync =
      (fun path ->
        let fd = wrap "open" path (fun () -> Unix.openfile path [ Unix.O_WRONLY ] 0) in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> wrap "fsync" path (fun () -> Unix.fsync fd)));
    rename =
      (fun ~src ~dst -> wrap "rename" src (fun () -> Sys.rename src dst));
    fsync_dir =
      (fun path ->
        let dir = Filename.dirname path in
        match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
        | exception Unix.Unix_error (err, _, _) -> fail "open" dir (Unix.error_message err)
        | fd ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              (* Best-effort: some filesystems reject fsync on a
                 directory fd; there is nothing better to do there. *)
              try Unix.fsync fd with Unix.Unix_error _ -> ()));
    remove =
      (fun path ->
        try Sys.remove path with
        | Sys_error _ when not (Sys.file_exists path) -> ()
        | Sys_error msg -> fail "remove" path msg);
    exists = (fun path -> Sys.file_exists path) }

(* ------------------------------------------------------------------ *)
(* Protocols                                                           *)
(* ------------------------------------------------------------------ *)

let generation_path path i = if i = 0 then path else Printf.sprintf "%s.%d" path i

let atomic_publish ?(backend = fs) ?(keep = 1) ~path data =
  if keep < 1 then invalid_arg "Durable.atomic_publish: keep must be >= 1";
  let tmp = path ^ ".tmp" in
  try
    (* Stage durably first: once the tmp bytes are fsynced, every later
       step is a rename, and a crash between any two of them leaves a
       complete generation under some name. *)
    backend.write tmp data;
    backend.fsync tmp;
    if keep > 1 && backend.exists path then begin
      (* Rotate: path.(keep-2) -> path.(keep-1), ..., path -> path.1;
         the oldest generation is overwritten by the shift. *)
      for i = keep - 1 downto 2 do
        let src = generation_path path (i - 1) in
        if backend.exists src then backend.rename ~src ~dst:(generation_path path i)
      done;
      backend.rename ~src:path ~dst:(generation_path path 1)
    end;
    backend.rename ~src:tmp ~dst:path;
    backend.fsync_dir path
  with Io_error _ as e ->
    (* A failed publish (disk full, permissions) must not leave the
       staging file behind; the previous generations are untouched. *)
    (try backend.remove tmp with Io_error _ -> ());
    raise e

(* With [keep = 1] a publish is exactly tmp-write, fsync, rename,
   fsync-dir: the same primitives, so the same fault-backend cost. *)
let atomic_write ?backend ~path data =
  match atomic_publish ?backend ~path data with () -> Ok () | exception Io_error e -> Error e

let atomic_write_exn ?backend ~path data = atomic_publish ?backend ~path data

let read_file ?(backend = fs) path =
  match backend.read path with s -> Ok s | exception Io_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Background publisher                                                *)
(* ------------------------------------------------------------------ *)

module Publisher = struct
  type job =
    | Publish of { keep : int; payload : unit -> string }
    | Append of string list  (* one batch, newest payload first *)

  (* [pending] holds each path's jobs not yet started, newest first, and
     [queue] the paths that have some, oldest submission first: a path is
     in [queue] exactly when it is in [pending].  One writer thread runs
     while [running]; it takes jobs one at a time, so two jobs of one
     path never overlap and land in submission order. *)
  type t = {
    backend : backend;
    lock : Mutex.t;
    idle : Condition.t;
    pending : (string, job list) Hashtbl.t;
    queue : string Queue.t;
    mutable running : bool;
    mutable failure : (exn * Printexc.raw_backtrace) option;
  }

  let create ?(backend = fs) () =
    { backend;
      lock = Mutex.create ();
      idle = Condition.create ();
      pending = Hashtbl.create 4;
      queue = Queue.create ();
      running = false;
      failure = None }

  let run_job backend path = function
    | Publish { keep; payload } -> atomic_publish ~backend ~keep ~path (payload ())
    | Append payloads ->
      List.iter (backend.append path) (List.rev payloads);
      backend.fsync path

  (* Called with the lock held: the oldest job of [path], which goes back
     to the end of [queue] while it has more. *)
  let take_oldest t path =
    match List.rev (Hashtbl.find t.pending path) with
    | [] -> assert false
    | [ job ] ->
      Hashtbl.remove t.pending path;
      job
    | job :: older_first ->
      Hashtbl.replace t.pending path (List.rev older_first);
      Queue.push path t.queue;
      job

  (* The writer touches only the jobs and the backend.  It exits when
     nothing is pending, so an idle publisher holds no thread. *)
  let rec write t =
    let next =
      Mutex.protect t.lock (fun () ->
          match Queue.take_opt t.queue with
          | None ->
            t.running <- false;
            Condition.broadcast t.idle;
            None
          | Some path -> Some (path, take_oldest t path))
    in
    match next with
    | None -> ()
    | Some (path, job) ->
      (match run_job t.backend path job with
      | () -> ()
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.protect t.lock (fun () ->
            if Option.is_none t.failure then t.failure <- Some (e, bt)));
      write t

  (* Called with the lock held: the recorded failure, now reported. *)
  let take_failure t =
    let f = t.failure in
    t.failure <- None;
    f

  let reraise = Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt)

  (* Queue a job for [path]: [merge] folds it into the path's newest
     pending job when it can, else it goes after every pending one. *)
  let enqueue t ~path ~merge job =
    let failed, start =
      Mutex.protect t.lock (fun () ->
          match take_failure t with
          | Some _ as f -> (f, false)
          | None ->
            Hashtbl.replace t.pending path
              (match Hashtbl.find_opt t.pending path with
              | None | Some [] ->
                Queue.push path t.queue;
                [ job ]
              | Some (newest :: older as jobs) -> (
                match merge newest with Some merged -> merged :: older | None -> job :: jobs));
            let start = not t.running in
            t.running <- true;
            (None, start))
    in
    reraise failed;
    if start then ignore (Thread.create write t : Thread.t)

  let submit t ?(keep = 1) ~path payload =
    if keep < 1 then invalid_arg "Durable.Publisher.submit: keep must be >= 1";
    let job = Publish { keep; payload } in
    (* A newer whole-file payload supersedes a pending one with nothing
       queued behind it. *)
    enqueue t ~path job ~merge:(function Publish _ -> Some job | Append _ -> None)

  let append t ~path payload =
    enqueue t ~path (Append [ payload ]) ~merge:(function
      | Append batch -> Some (Append (payload :: batch))
      | Publish _ -> None)

  let drain t =
    reraise
      (Mutex.protect t.lock (fun () ->
           while t.running do
             Condition.wait t.idle t.lock
           done;
           take_failure t))
end

(* ------------------------------------------------------------------ *)
(* Deterministic fault backend                                         *)
(* ------------------------------------------------------------------ *)

module Mem = struct
  (* Per-file state: [content] is what the writing process sees;
     [synced] is the prefix length guaranteed durable.  Writes and
     appends extend [content] without moving [synced]; [fsync] promotes
     the whole content.  A crash truncates every file to its durable
     prefix (or keeps the un-fsynced tail, per the plan) and optionally
     rolls back renames/unlinks not yet sealed by a directory fsync. *)
  type mfile = { mutable content : string; mutable synced : int }

  type fs = {
    files : (string, mfile) Hashtbl.t;
    mutable fuel : int option;  (* remaining I/O cost before the crash *)
    mutable spent : int;
    mutable undo : (unit -> unit) list;  (* un-fsynced rename/unlink rollback *)
    keep_unsynced : bool;
    keep_renames : bool;
  }

  exception Crashed

  let create ?fuel ?(keep_unsynced = false) ?(keep_renames = false) () =
    { files = Hashtbl.create 16;
      fuel;
      spent = 0;
      undo = [];
      keep_unsynced;
      keep_renames }

  let set_fuel t fuel = t.fuel <- Some fuel

  exception Torn of int
  (* Internal: a write interrupted mid-op; carries the bytes that landed. *)

  (* Charge cost units; returns how many of the op's [divisible] units
     (bytes) may be applied.  A fixed op costs 1 (divisible = 0): either
     it happens or Crashed. *)
  let charge t ~fixed ~divisible =
    t.spent <- t.spent + fixed + divisible;
    match t.fuel with
    | None -> divisible
    | Some f ->
      if f >= fixed + divisible then begin
        t.fuel <- Some (f - fixed - divisible);
        divisible
      end
      else begin
        t.fuel <- Some 0;
        if f < fixed then raise Crashed
        else
          (* Torn mid-op: the first [f - fixed] bytes land, then the kill. *)
          raise_notrace (Torn (f - fixed))
      end

  let find t path = Hashtbl.find_opt t.files path

  let snapshot t path =
    match find t path with
    | None -> fun () -> Hashtbl.remove t.files path
    | Some f ->
      let content = f.content and synced = f.synced in
      fun () -> Hashtbl.replace t.files path { content; synced }

  let mem_write t path data =
    let apply keep =
      let kept = if keep = String.length data then data else String.sub data 0 keep in
      (* Truncate-and-rewrite destroys the old bytes immediately: the
         simulated disk deliberately punishes non-atomic in-place
         rewrites, which is why every publisher stages to a .tmp. *)
      Hashtbl.replace t.files path { content = kept; synced = 0 }
    in
    match charge t ~fixed:1 ~divisible:(String.length data) with
    | full -> apply full
    | exception Torn k ->
      apply k;
      raise Crashed

  let mem_append t path data =
    let base = match find t path with Some f -> f | None -> { content = ""; synced = 0 } in
    let apply keep =
      let kept = if keep = String.length data then data else String.sub data 0 keep in
      Hashtbl.replace t.files path { base with content = base.content ^ kept }
    in
    match charge t ~fixed:1 ~divisible:(String.length data) with
    | full -> apply full
    | exception Torn k ->
      apply k;
      raise Crashed

  let mem_fsync t path =
    ignore (charge t ~fixed:1 ~divisible:0);
    match find t path with
    | Some f -> f.synced <- String.length f.content
    | None -> fail "fsync" path "no such file"

  let mem_rename t ~src ~dst =
    ignore (charge t ~fixed:1 ~divisible:0);
    match find t src with
    | None -> fail "rename" src "no such file"
    | Some f ->
      let undo_src = snapshot t src and undo_dst = snapshot t dst in
      t.undo <- (fun () -> undo_dst (); undo_src ()) :: t.undo;
      Hashtbl.remove t.files src;
      Hashtbl.replace t.files dst f

  let mem_remove t path =
    ignore (charge t ~fixed:1 ~divisible:0);
    match find t path with
    | None -> ()
    | Some _ ->
      let undo = snapshot t path in
      t.undo <- undo :: t.undo;
      Hashtbl.remove t.files path

  let mem_fsync_dir t _path =
    ignore (charge t ~fixed:1 ~divisible:0);
    (* Directory fsync seals every pending rename/unlink. *)
    t.undo <- []

  let mem_read t path =
    ignore (charge t ~fixed:1 ~divisible:0);
    match find t path with
    | Some f -> f.content
    | None -> fail "read" path "no such file"

  let mem_exists t path =
    ignore (charge t ~fixed:1 ~divisible:0);
    find t path <> None

  let backend t =
    { name = "mem";
      read = mem_read t;
      write = mem_write t;
      append = mem_append t;
      fsync = mem_fsync t;
      rename = mem_rename t;
      fsync_dir = mem_fsync_dir t;
      remove = mem_remove t;
      exists = mem_exists t }

  let crash t =
    (* Un-fsynced renames and unlinks: roll back unless the plan says
       the directory happened to hit the platter first. *)
    if not t.keep_renames then List.iter (fun undo -> undo ()) t.undo;
    t.undo <- [];
    (* Un-fsynced bytes: lost (lost-page-cache plan) or kept up to the
       kill point (torn-tail plan). *)
    Hashtbl.iter
      (fun _ f ->
        if t.keep_unsynced then f.synced <- String.length f.content
        else begin
          if f.synced < String.length f.content then f.content <- String.sub f.content 0 f.synced
        end)
      t.files;
    (* Files created but never fsynced collapse to "" rather than
       disappearing: an empty inode is exactly what a crashed create
       leaves behind. *)
    t.fuel <- None

  let cost t = t.spent
  let set_file t path content = Hashtbl.replace t.files path { content; synced = String.length content }
  let get_file t path = Option.map (fun f -> f.content) (find t path)

  let list_files t =
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.files [])

  let flip_bit t path bit =
    match find t path with
    | None -> invalid_arg "Mem.flip_bit: no such file"
    | Some f ->
      let byte = bit / 8 in
      if byte >= String.length f.content then invalid_arg "Mem.flip_bit: out of range";
      let b = Bytes.of_string f.content in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (0x80 lsr (bit mod 8))));
      f.content <- Bytes.to_string b;
      f.synced <- min f.synced (String.length f.content)
end
