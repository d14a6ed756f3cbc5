(** Durable, crash-safe, content-addressed artifact store — the on-disk
    layer behind the in-memory LRU ({!Cache}).

    One file per entry, named by the entry's content key (a hex digest,
    so names are filesystem-safe).  The file format is self-verifying:

    {v
    gdp-store/1 <md5-of-payload-hex> <payload-length>\n
    <payload bytes (compact Minijson)>
    v}

    {2 Crash safety}

    Writes are atomic: the entry is written to a dot-prefixed temp file
    in the same directory, optionally [fsync]ed, then [rename]d into
    place — a reader (or a daemon restarting after [kill -9]) sees
    either the complete previous state or the complete new state, never
    a half-written entry.  Leftover temp files from a crashed writer
    are deleted on [open_].

    {2 Corruption tolerance}

    Every read re-verifies the header: magic, declared length against
    the actual byte count (catches torn/truncated files) and the MD5
    checksum (catches bit flips).  A bad entry is {e quarantined} —
    moved into the [quarantine/] subdirectory with its failure reason
    kept for inspection — and reported as absent, so the daemon
    recompiles instead of ever serving a corrupt artifact.  [scrub]
    runs that verification over the whole store (the daemon does this
    on startup).

    {2 Chaos hook}

    When {!Fault} is armed for [service.cache.corrupt], [add] flips
    one deterministic byte of the just-written payload on disk —
    exactly the damage the next read must catch.

    Writes, warm hits and quarantines are counted in {!stats}.
    Single-threaded, like the rest of the daemon. *)

type t

val open_ : ?fsync:bool -> string -> t
(** [open_ dir] creates [dir] (and [dir/quarantine]) if needed, deletes
    leftover temp files, and rebuilds the in-memory index from the
    directory listing.  [fsync] (default [false]) syncs every entry to
    stable storage before the rename — slower, but survives power loss
    as well as process death.  Raises [Unix.Unix_error] when the
    directory cannot be created or listed. *)

val dir : t -> string

val length : t -> int
(** Entries currently indexed (quarantined entries excluded). *)

val mem : t -> string -> bool

val find : t -> string -> Minijson.t option
(** Read and verify one entry.  Returns [None] for absent entries
    {e and} for corrupt ones (which are quarantined as a side effect —
    a second [find] of the same key is a plain miss). *)

val add : t -> string -> Minijson.t -> unit
(** Atomically write (or replace) an entry. *)

val remove : t -> string -> unit

val scrub : t -> int * int
(** Verify every indexed entry; quarantine the bad ones.  Returns
    [(intact, quarantined)]. *)

val corrupt_for_test : t -> string -> bool
(** Flip one byte of an entry's on-disk payload in place — the chaos /
    test helper behind deliberate corruption.  [false] when the entry
    does not exist. *)

type stats = {
  entries : int;
  writes : int;
  warm_hits : int;  (** disk reads that served a verified entry *)
  quarantined : int;
}

val stats : t -> stats
val stats_to_json : stats -> Minijson.t
