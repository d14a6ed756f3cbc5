(** Bounded LRU artifact cache (see cache.mli). *)

(* Doubly-linked recency list; [head] is most recent, [tail] least. *)
type node = {
  key : string;
  mutable value : Minijson.t;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  cap : int;
  table : (string, node) Hashtbl.t;
  store : Store.t option;  (** durable backing layer, read/write-through *)
  mutable head : node option;
  mutable tail : node option;
  mutable hits : int;
  mutable misses : int;
  mutable warm_hits : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  warm_hits : int;
  evictions : int;
  entries : int;
  cap : int;
}

let create ?(capacity = 256) ?store () =
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Cache.create: capacity %d < 1" capacity);
  {
    cap = capacity;
    table = Hashtbl.create 64;
    store;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    warm_hits = 0;
    evictions = 0;
  }

let store t = t.store

let capacity (t : t) = t.cap
let length t = Hashtbl.length t.table

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
      unlink t n;
      push_front t n

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.key;
      t.evictions <- t.evictions + 1

(* Insert into the recency structure only — no store write-through.
   Shared by [add] (which also persists) and the store-promotion path
   of [find] (whose value is already durable). *)
let add_resident t k v =
  match Hashtbl.find_opt t.table k with
  | Some n ->
      n.value <- v;
      touch t n
  | None ->
      if length t >= t.cap then evict_lru t;
      let n = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.table k n;
      push_front t n

let find_tier t k =
  match Hashtbl.find_opt t.table k with
  | Some n ->
      t.hits <- t.hits + 1;
      touch t n;
      Some (n.value, `Memory)
  | None -> (
      match Option.bind t.store (fun s -> Store.find s k) with
      | Some v ->
          (* warm hit: durable entry survives restarts and LRU
             eviction; promote it back into memory *)
          t.warm_hits <- t.warm_hits + 1;
          add_resident t k v;
          Some (v, `Store)
      | None ->
          t.misses <- t.misses + 1;
          None)

let find t k = Option.map fst (find_tier t k)

let mem t k =
  Hashtbl.mem t.table k
  || match t.store with Some s -> Store.mem s k | None -> false

let add t k v =
  add_resident t k v;
  match t.store with Some s -> Store.add s k v | None -> ()

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None

let stats (c : t) =
  {
    hits = c.hits;
    misses = c.misses;
    warm_hits = c.warm_hits;
    evictions = c.evictions;
    entries = length c;
    cap = c.cap;
  }

let digest_key ~parts =
  let b = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string b (string_of_int (String.length p));
      Buffer.add_char b ':';
      Buffer.add_string b p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents b))
