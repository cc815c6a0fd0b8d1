(* Shared content-addressed cache of built images (see DESIGN.md §11).

   Keys are [Space.stage_key] content-addresses of a configuration's
   non-runtime projection; values record whether that image built (and on
   which slot) or failed deterministically.  Recency is a doubly-linked
   list threaded through the hash-table nodes: head = most recently used,
   tail = next to evict.  Everything is deterministic — no wall clock, no
   hashing order dependence — so the driver's virtual trajectories stay
   reproducible and the cache state can be checkpointed and restored
   exactly. *)

type status = Built | Build_failed of Failure.t

type entry = { status : status; origin : int }

type config = { capacity : int }

let capacity n =
  if n < 1 then invalid_arg "Image_cache.capacity: capacity must be at least 1";
  { capacity = n }

type node = {
  key : string;
  mutable value : entry;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  cap : int;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
}

let create { capacity } = { cap = capacity; tbl = Hashtbl.create 64; head = None; tail = None }

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let peek t key = Option.map (fun n -> n.value) (Hashtbl.find_opt t.tbl key)

let touch t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> ()
  | Some node ->
    unlink t node;
    push_front t node

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some node ->
    unlink t node;
    push_front t node;
    Some node.value

let add t key value =
  match Hashtbl.find_opt t.tbl key with
  | Some node ->
    node.value <- value;
    unlink t node;
    push_front t node;
    None
  | None ->
    let node = { key; value; prev = None; next = None } in
    Hashtbl.replace t.tbl key node;
    push_front t node;
    if Hashtbl.length t.tbl <= t.cap then None
    else begin
      match t.tail with
      | None -> assert false
      | Some lru ->
        unlink t lru;
        Hashtbl.remove t.tbl lru.key;
        Some (lru.key, lru.value)
    end

let mem t key = Hashtbl.mem t.tbl key
let cap t = t.cap

let to_alist t =
  let rec go acc = function None -> List.rev acc | Some n -> go ((n.key, n.value) :: acc) n.next in
  go [] t.head

let of_alist config alist =
  if List.length alist > config.capacity then
    invalid_arg "Image_cache.of_alist: more entries than capacity";
  let t = create config in
  (* Insert LRU-first so the head of [alist] ends up most recently used. *)
  List.iter
    (fun (k, v) ->
      if mem t k then invalid_arg "Image_cache.of_alist: duplicate key";
      ignore (add t k v))
    (List.rev alist);
  t
