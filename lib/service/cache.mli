(** Content-addressed artifact cache for the [gdpcd] daemon.

    Maps a content key — a digest of everything that determines a
    compile's outcome (source text, canonical settings JSON, machine
    description) — to the finished result document.  Bounded LRU: when
    an insertion would exceed the capacity, the least-recently-used
    entry is evicted.  [find] refreshes recency; [add] of an existing
    key replaces the value and refreshes recency.

    Optionally layered over a durable {!Store}: [find] falls through a
    memory miss to the on-disk store (a verified disk read is a
    {e warm hit} — the entry survives daemon restarts and LRU
    eviction — and is promoted back into memory), and [add] writes
    through, so every computed artifact becomes durable the moment it
    is cached.  [clear] empties memory only; the store keeps its
    entries.

    The cache keeps its own hit/miss/warm-hit/eviction tallies (always
    on); {!stats} is their only reader.

    Single-threaded, like the rest of the repo. *)

type t

val create : ?capacity:int -> ?store:Store.t -> unit -> t
(** Default capacity: 256 entries, no durable layer.  Raises
    [Invalid_argument] when [capacity < 1]. *)

val store : t -> Store.t option

val capacity : t -> int

val length : t -> int
(** Entries currently resident. *)

val find : t -> string -> Minijson.t option
(** Lookup; a hit moves the entry to most-recently-used. *)

val find_tier : t -> string -> (Minijson.t * [ `Memory | `Store ]) option
(** [find] that also reports which tier answered: [`Memory] for a
    resident entry, [`Store] for a warm hit promoted from the durable
    layer — the cache-tier label request traces and metrics carry. *)

val mem : t -> string -> bool
(** Lookup without touching recency or the hit/miss tallies — for
    introspection (e.g. coalescing decisions). *)

val add : t -> string -> Minijson.t -> unit
(** Insert or replace; may evict the LRU entry. *)

val clear : t -> unit
(** Drop every entry (tallies survive — they are monotonic). *)

type stats = {
  hits : int;
  misses : int;
  warm_hits : int;  (** memory misses served from the durable store *)
  evictions : int;
  entries : int;
  cap : int;
}

val stats : t -> stats

val digest_key : parts:string list -> string
(** The content key: a hex digest over the given parts, each prefixed
    with its length so concatenation ambiguity cannot alias two
    different part lists to one key. *)
