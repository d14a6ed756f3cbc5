(** Shared-memory parallelism for the compilation hot paths.

    A small task-pool interface with two build-time backends selected by
    the dune rules in this directory:

    - on OCaml 5 ([backend = "domains"]) a pool of persistent worker
      domains executes [parallel_for]/[map] bodies concurrently;
    - on OCaml 4.x ([backend = "seq"]) the same interface runs every
      body inline on the calling thread, so the library still builds and
      behaves identically — just without the wall-clock win.

    A pool's [size] is its execution width: how many domains run
    bodies (always 1 on the seq backend).  Callers must produce results
    that do not depend on it — the width only changes wall clock.

    {2 Determinism and error contract}

    [map pool ~n f] returns [[| f 0; ...; f (n-1) |]]: results land by
    index, so scheduling order cannot reorder them.  Bodies must not
    touch shared mutable state except through [Lock] (or disjoint array
    slots).  If bodies raise, every index still runs and the exception
    of the {e lowest} index is re-raised — deterministic whatever the
    interleaving.

    Nested calls are safe: a [parallel_for] issued from inside a pool
    body (or on a pool another domain owns) runs inline.  Pools are
    scoped by [with_pool] and torn down before it returns.  Beware that
    on OCaml 5 a process that has {e ever} spawned a domain may never
    call [Unix.fork] again — even after every domain is joined — so any
    [Exec] process pool must be created (forked) before the first
    [with_pool] whose width exceeds 1. *)

type pool

(** ["domains"] or ["seq"]. *)
val backend : string

(** The runtime's recommended domain count (1 on the seq backend). *)
val recommended : unit -> int

(** [with_pool ~domains f] runs [f] with a pool of at most [domains]
    domains (clamped to at least 1).  The width defaults to
    [min domains (recommended ())] — oversubscribed domains don't just
    idle, they stretch every minor-GC stop-the-world barrier — and
    [?workers] overrides it, still at most [domains].  A width of 1
    spawns nothing and runs everything inline.  Worker domains are
    joined before [with_pool] returns, also on exception. *)
val with_pool : ?workers:int -> domains:int -> (pool -> 'a) -> 'a

(** Execution width (worker domains + the caller), >= 1. *)
val size : pool -> int

(** [parallel_for pool ~n body] runs [body i] for [0 <= i < n], work
    shared over the pool's domains.  See the error contract above. *)
val parallel_for : pool -> n:int -> (int -> unit) -> unit

(** [parallel_chunks pool ~n body] splits [0..n-1] into contiguous
    ranges and calls [body lo hi] (half-open) per range — the CSR
    vertex-range form of [parallel_for].  Chunk boundaries depend on
    [size], so bodies must produce results that are chunking-invariant
    (pure per-index writes). *)
val parallel_chunks : pool -> n:int -> (int -> int -> unit) -> unit

(** [map pool ~n f] is [Array.init n f] with the bodies run in
    parallel; results are positioned by index. *)
val map : pool -> n:int -> (int -> 'a) -> 'a array

(** [true] iff the calling domain is the one the program started on
    (always [true] on the seq backend).  Telemetry uses this to keep
    span recording on the main domain. *)
val is_main_domain : unit -> bool

(** Mutual exclusion that compiles away on the seq backend: a real
    [Mutex.t] under domains, a no-op on OCaml 4.x where no second
    domain can exist.  Not reentrant. *)
module Lock : sig
  type t

  val create : unit -> t
  val with_lock : t -> (unit -> 'a) -> 'a
end
