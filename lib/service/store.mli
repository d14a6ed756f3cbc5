(** Durable, crash-safe, content-addressed artifact store — the on-disk
    layer behind the in-memory LRU ({!Cache}).

    One append-only log per store directory, [DIR/store.log], holds one
    self-verifying record per write:

    {v
    gdp-store/2 <key> <md5-of-payload-hex> <payload-length>\n
    <payload bytes (compact Minijson)>\n
    v}

    The in-memory index maps each key to its newest record.  Replacing
    an entry appends a record; the older one stays in the log, unread.
    Files of the older one-file-per-entry layout are ignored: never
    read, never deleted.

    {2 Crash safety}

    [add] appends its record with one [write] to the log, opened once
    with [O_APPEND], before it returns: the entry survives the death of
    the process (not a power loss; nothing is [fsync]ed).  A writer
    killed mid-append leaves a torn tail.  [open_] copies the tail into
    [quarantine/] and truncates it away, so no partial record is ever
    indexed.  A header [open_] cannot frame ends the log the same way.

    {2 Corruption tolerance}

    Every read re-verifies the record: magic, key, length (catches torn
    records) and the MD5 checksum (catches bit flips).  A bad record is
    {e quarantined} — its bytes copied into [quarantine/] with a
    [.reason] file beside them and a tombstone record appended, so no
    reopen indexes it again — and reported as absent, so the daemon
    recompiles instead of ever serving a corrupt artifact.  [scrub]
    runs that verification over the whole store (the daemon does this
    on startup).

    {2 Chaos hook}

    When {!Fault} is armed for [service.cache.corrupt], [add] flips
    one deterministic byte of the payload it just appended — exactly
    the damage the next read must catch.

    Writes, warm hits and quarantines are counted in {!stats}.
    Single-threaded with one writer per directory, like the daemon. *)

type t

val open_ : string -> t
(** [open_ dir] creates [dir] (and [dir/quarantine]) and the log if
    needed, quarantines and truncates a torn tail, and rebuilds the
    in-memory index from the log.  Raises [Unix.Unix_error] when the
    directory or the log cannot be created or read. *)

val close : t -> unit
(** Close the log.  The store must not be used afterwards. *)

val dir : t -> string

val length : t -> int
(** Entries currently indexed (quarantined entries excluded). *)

val mem : t -> string -> bool

val find : t -> string -> Minijson.t option
(** Read and verify one entry.  Returns [None] for absent entries
    {e and} for corrupt ones (which are quarantined as a side effect —
    a second [find] of the same key is a plain miss). *)

val add : t -> string -> Minijson.t -> unit
(** Append (or replace) an entry.  Raises [Invalid_argument] for an
    empty key or one containing a space or a newline. *)

val scrub : t -> int * int
(** Verify every indexed entry; quarantine the bad ones.  Returns
    [(intact, quarantined)], where [quarantined] counts every record
    quarantined since [open_], a torn tail it cut away included. *)

val corrupt_for_test : t -> string -> bool
(** Flip one byte of an entry's payload in the log, in place — the
    chaos / test helper behind deliberate corruption.  [false] when the
    entry does not exist. *)

type stats = {
  entries : int;
  writes : int;
  warm_hits : int;  (** disk reads that served a verified entry *)
  quarantined : int;
}

val stats : t -> stats
