(** A portable process-pool job executor.

    [map] fans a list of jobs over a pool of forked worker processes
    (plain [Unix.fork] + pipes — works identically on OCaml 4.14 and
    5.x, no Thread or Domain dependency) and collects one result per
    job, in job order.  Jobs and results are OCaml values: each crosses
    its pipe as one frame, an 8-byte length and the value's [Marshal]
    bytes, tagged with the job's ticket.

    [Marshal] is safe here because only the pool's own processes write
    the bytes: a worker is a fork of the parent, the same executable
    with the same types, so every value round-trips exactly (floats
    bit for bit, [nan] and [infinity] included).  A frame cut short,
    one whose length is not its value's, and a result for another job
    all take the crash path below, unread.  Nothing from outside the
    process is unmarshaled: the daemon decodes and validates its
    clients' JSON before a job reaches the pool.

    {!Pool} is the persistent flavour behind the [gdpcd] daemon: the
    same frames and workers, but jobs are submitted one at a time,
    results are polled asynchronously, and in-flight jobs can be
    cancelled.

    All pipe I/O is hardened against signals: reads and writes restart
    on [EINTR] and resume after partial transfers, so a process that
    installs signal handlers (the daemon handles [SIGTERM]) can drive a
    pool safely.  Worker processes are always collected — pool shutdown
    reaps every child, escalating to [SIGKILL] for wedged workers, so
    no zombie survives the pool.

    {2 Batching}

    Each job names a [batch] key.  Jobs sharing a key are dispatched,
    in order, to the same worker, so per-key memoization in the worker
    function (e.g. {!Gdp_core.Pipeline.prepare_default}'s per-benchmark
    cache) is hit instead of recomputed by every process.  Batches are
    adopted by workers as they become free, in submission order.

    {2 Failure handling}

    Two kinds of failure are distinguished:

    - a {e job error}: the worker function raised.  The exception is
      caught inside the worker and returned as [Error msg]
      ([Printexc.to_string]) for that job only.  Deterministic — never
      retried.
    - a {e worker crash}: the worker process died (segfault, kill,
      [exit]), wrote a broken frame or answered for another job.  The
      pool notes the fault ({!Fault.note_detected}), respawns a worker,
      and retries the in-flight job (once under {!map}, up to
      [max_retries] times in a {!Pool}; {!Fault.note_recovered} on a
      subsequent success); past the bound
      the job completes as [Error "worker crashed ..."] and the run
      continues.  A result [Marshal] cannot write (a closure) kills
      its worker, so it is a crash too.

    {2 Determinism}

    Results are stored by job index, so for pure worker functions the
    result array is identical whatever [jobs] is — parallel runs are
    bit-identical to sequential ones.  With [jobs <= 1] no process is
    forked at all: jobs run inline in the calling process, through the
    same error-capturing path.

    {2 Telemetry}

    When telemetry is enabled, [map] records one [exec.job] span per
    job (annotated with the batch key, and the worker slot when
    pooled) via {!Telemetry.record_span} and counts [exec.jobs] and
    [exec.errors], inline too; a pool also counts [exec.batches],
    [exec.crashes], [exec.retries], [exec.cancelled] and [exec.workers]
    (workers started) — so [--trace] shows the pool timeline. *)

type 'a job = {
  payload : 'a;  (** handed to the worker function *)
  batch : string;  (** affinity key; jobs with equal keys share a worker *)
}

val job : ?batch:string -> 'a -> 'a job
(** [batch] defaults to [""] (all jobs in one batch). *)

(** Clamp a user-supplied [-j] value to [[1, 64]]. *)
val clamp_jobs : int -> int

val map :
  ?jobs:int -> worker:('a -> 'b) -> 'a job list -> ('b, string) result array
(** [map ~worker jobs] applies [worker] to every job's payload and
    returns the results in job order.

    [jobs] (default [1]) is the number of worker processes; [<= 1]
    runs everything inline without forking.  A crashed job is retried
    once.

    The caller must ensure [worker] only touches process-local state:
    workers are forked copies, and nothing they mutate is visible to
    the parent except the returned value. *)

(** A persistent worker pool with incremental submission, asynchronous
    completion and cancellation — the serving-layer counterpart of
    {!map}.  Single-threaded: all operations must be called from the
    process that created the pool. *)
module Pool : sig
  type ('a, 'b) t
  (** A pool whose workers take ['a] payloads and return ['b] values. *)

  type ticket = int
  (** Identifies a submitted job until its completion is drained. *)

  type 'b completion = { c_ticket : ticket; c_result : ('b, string) result }

  val create :
    ?jobs:int ->
    ?max_retries:int ->
    ?retry_backoff:float ->
    ?respawn_backoff:float ->
    ?poison_threshold:int ->
    ?backoff_seed:int ->
    worker:('a -> 'b) ->
    unit ->
    ('a, 'b) t
  (** Fork [jobs] (clamped to [[1, 64]], default [1]) persistent
      workers.  Unlike {!map} there is no inline path: a pool always
      runs its jobs in child processes, so the creating process (an
      event loop) is never blocked by a job.  [SIGPIPE] is set to
      ignore while the pool lives (restored by {!shutdown}).

      Supervision knobs (all but [max_retries] default to immediate,
      unbounded-rate action):

      - [max_retries] (default [1]): crash retries per job.
      - [retry_backoff] (seconds, default [0.]): base delay before a
        crash-retried job is redispatched.  Attempt [n] waits
        [retry_backoff * 2^(n-1)] scaled by a deterministic jitter in
        [[0.5, 1.5)], so a crashing job cannot hot-loop a worker.
      - [respawn_backoff] (seconds, default [0.]): base delay before a
        crashed slot is re-forked, doubling per consecutive crash (the
        counter resets on the slot's next successful job).  With [0.]
        slots respawn immediately, as before.
      - [poison_threshold] (default [0] = disabled): a batch whose jobs
        have killed this many workers is {e poisoned} — its in-flight
        job fails with a [poison-pill] diagnostic, every queued and
        future job of the same batch fails immediately, and the pool
        stops burning workers on it.
      - [backoff_seed]: seeds the jitter PRNG, so backoff schedules are
        replayable. *)

  val submit : ('a, _) t -> ?batch:string -> 'a -> ticket
  (** Enqueue a job and dispatch it to an idle worker if one is free.
      Jobs sharing a [batch] key run, in submission order, on the same
      worker; without [batch] the job gets a private key (no affinity).
      Raises [Invalid_argument] after {!shutdown}. *)

  val cancel :
    (_, _) t -> ticket -> [ `Cancelled_queued | `Cancelled_running | `Not_found ]
  (** Withdraw a job.  A queued job is removed outright; a running job
      is stopped by killing its worker (which is respawned) — neither
      will ever appear in {!poll} results.  [`Not_found] when the
      ticket is unknown or its completion was already drained. *)

  val queued : (_, _) t -> int
  (** Jobs waiting for a worker — the backpressure signal. *)

  val in_flight : (_, _) t -> int
  (** Jobs currently executing in a worker. *)

  val pending : (_, _) t -> int
  (** [queued + in_flight]. *)

  type health = {
    h_workers : int;  (** configured slots *)
    h_alive : int;  (** slots with a live worker right now *)
    h_crashes : int;  (** worker crashes since [create] *)
    h_respawns : int;  (** crash-driven respawns (initial forks excluded) *)
    h_poisoned : int;  (** batches on the poison ledger *)
  }

  val health : (_, _) t -> health
  (** Supervision snapshot — the daemon surfaces this in [stats]. *)

  val poisoned_batches : (_, _) t -> string list
  (** Batch keys currently on the poison ledger (unordered). *)

  val chaos_kill : (_, _) t -> int -> bool
  (** [chaos_kill t i] SIGKILLs the worker behind the [i]-th busy slot
      (modulo the busy count) — the service chaos harness's
      [service.worker.kill] injection.  Detection, retry, poisoning and
      respawn then exercise the ordinary crash machinery.  [false] when
      no worker is busy. *)

  val result_fds : (_, _) t -> Unix.file_descr list
  (** Parent-side descriptors that become readable when an in-flight
      job completes — pass them to an external [select] loop, then call
      [poll ~timeout:0.] to collect. *)

  val poll : ?timeout:float -> (_, 'b) t -> 'b completion list
  (** Dispatch queued jobs to idle workers, wait up to [timeout]
      seconds (default: block until activity) for in-flight results,
      and return every completion accumulated since the last call, in
      completion order.  Returns immediately when nothing is pending. *)

  val shutdown : (_, _) t -> unit
  (** Drop queued jobs, close the pipes and collect every worker
      process (escalating to [SIGKILL] after a grace period).
      Idempotent. *)
end
