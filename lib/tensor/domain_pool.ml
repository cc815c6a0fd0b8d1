(* A small fixed-size pool of OCaml 5 domains for data-parallel loops.

   The pool exists to make *pure* computation wall-clock parallel without
   perturbing any observable result: callers hand it an index range whose
   iterations are independent, the pool splits the range into chunks and
   lets every lane (the calling domain plus [size - 1] spawned workers)
   steal chunks off a shared atomic counter.  Because each iteration
   computes exactly what it would have computed sequentially — same code,
   same inputs, same floating-point operation order — results are bitwise
   identical for every pool size, including the degenerate size-1 pool
   that runs inline.  Determinism is therefore a property of the work
   partitioning (by index, not by timing), not of scheduling luck.

   Concurrency-safety notes:
   - [parallel_for] is claimed by at most one coordinator at a time via an
     atomic flag; a second concurrent call (or a nested call from inside a
     worker chunk) simply runs its range inline on the calling domain, so
     re-entrancy can never deadlock the pool.
   - Worker exceptions are captured (first one wins) and re-raised on the
     calling domain after the range completes.
   - Chunk completion is counted with an atomic, which also provides the
     happens-before edge publishing the workers' writes to the caller. *)

type job = {
  n : int;
  chunk : int;
  f : int -> int -> unit;  (* [f lo hi] processes indices [lo, hi). *)
  next : int Atomic.t;     (* next unclaimed index *)
  completed : int Atomic.t;  (* indices fully processed (even on failure) *)
  failed : exn option Atomic.t;
}

type t = {
  size : int;  (* total lanes, including the calling domain *)
  mutable workers : unit Domain.t array;
  mu : Mutex.t;
  cv : Condition.t;
  mutable generation : int;  (* bumped under [mu] whenever a job is published *)
  mutable job : job option;
  mutable stopped : bool;
  coordinating : bool Atomic.t;
}

(* True while the current domain is executing chunks of some job; a nested
   [parallel_for] from such a context runs inline. *)
let busy_key = Domain.DLS.new_key (fun () -> false)

let run_chunks j =
  let was_busy = Domain.DLS.get busy_key in
  Domain.DLS.set busy_key true;
  let rec loop () =
    let lo = Atomic.fetch_and_add j.next j.chunk in
    if lo < j.n then begin
      let hi = min (lo + j.chunk) j.n in
      (if Atomic.get j.failed = None then
         try j.f lo hi
         with e -> ignore (Atomic.compare_and_set j.failed None (Some e)));
      (* Count even failed chunks so the coordinator never hangs. *)
      ignore (Atomic.fetch_and_add j.completed (hi - lo));
      loop ()
    end
  in
  loop ();
  Domain.DLS.set busy_key was_busy

let rec worker_loop t seen_gen =
  Mutex.lock t.mu;
  while (not t.stopped) && t.generation = seen_gen do
    Condition.wait t.cv t.mu
  done;
  let gen = t.generation and job = t.job and stopped = t.stopped in
  Mutex.unlock t.mu;
  if not stopped then begin
    (match job with Some j -> run_chunks j | None -> ());
    worker_loop t gen
  end

let create size =
  let size = max 1 size in
  let t =
    { size;
      workers = [||];
      mu = Mutex.create ();
      cv = Condition.create ();
      generation = 0;
      job = None;
      stopped = false;
      coordinating = Atomic.make false }
  in
  if size > 1 then
    t.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let shutdown t =
  Mutex.lock t.mu;
  let already = t.stopped in
  t.stopped <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.mu;
  if not already then Array.iter Domain.join t.workers

let parallel_for ?chunk t n f =
  if n <= 0 then ()
  else if
    t.size <= 1 || n = 1 || t.stopped
    || Domain.DLS.get busy_key
    || not (Atomic.compare_and_set t.coordinating false true)
  then f 0 n
  else begin
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None ->
        (* A few chunks per lane balances load without much steal traffic. *)
        max 1 (n / (t.size * 4))
    in
    let job =
      { n; chunk; f;
        next = Atomic.make 0;
        completed = Atomic.make 0;
        failed = Atomic.make None }
    in
    Mutex.lock t.mu;
    t.job <- Some job;
    t.generation <- t.generation + 1;
    Condition.broadcast t.cv;
    Mutex.unlock t.mu;
    run_chunks job;
    while Atomic.get job.completed < n do
      Domain.cpu_relax ()
    done;
    Mutex.lock t.mu;
    t.job <- None;
    Mutex.unlock t.mu;
    Atomic.set t.coordinating false;
    match Atomic.get job.failed with Some e -> raise e | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Ambient default pool                                                *)
(* ------------------------------------------------------------------ *)

(* Hot kernels (notably [Mat.matmul]) consult an ambient pool so that the
   whole stack parallelizes without threading a pool through every call
   site — the same pattern as a BLAS thread-count global.  This is safe
   precisely because pooled results are bitwise equal to sequential ones. *)

let default : t option Atomic.t = Atomic.make None
let get_default () = Atomic.get default

let with_default p f =
  let saved = Atomic.get default in
  Atomic.set default p;
  Fun.protect ~finally:(fun () -> Atomic.set default saved) f
