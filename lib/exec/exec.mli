(** A portable process-pool job executor.

    [map] fans a list of jobs over a pool of forked worker processes
    (plain [Unix.fork] + pipes — works identically on OCaml 4.14 and
    5.x, no Thread or Domain dependency) and collects one result per
    job, in job order.  Jobs and results cross the pipes as versioned,
    newline-delimited {!Minijson} documents, so nothing that depends on
    [Marshal]'s binary compatibility is on the wire.

    {!Pool} is the persistent flavour behind the [gdpcd] daemon: the
    same protocol and workers, but jobs are submitted one at a time,
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
      caught inside the worker, serialized, and returned as [Error msg]
      for that job only.  Deterministic — never retried.
    - a {e worker crash}: the worker process died (segfault, kill,
      [exit]) or wrote garbage.  The pool notes the fault
      ({!Fault.note_detected}), respawns a worker, and retries the
      in-flight job up to [max_retries] times ({!Fault.note_recovered}
      on a subsequent success); past the bound the job completes as
      [Error "worker crashed ..."] and the run continues.

    {2 Determinism}

    Results are stored by job index, so for pure worker functions the
    result array is identical whatever [jobs] is — parallel runs are
    bit-identical to sequential ones.  With [jobs <= 1] no process is
    forked at all: jobs run inline in the calling process, through the
    same error-capturing path.

    {2 Telemetry}

    When telemetry is enabled the pool records one [exec.job] span per
    job (annotated with the batch key and worker slot) via
    {!Telemetry.record_span}, plus counters [exec.jobs], [exec.batches],
    [exec.crashes], [exec.retries], [exec.errors], [exec.cancelled] and
    [exec.workers] (workers started) — so [--trace] shows the pool
    timeline. *)

type job = {
  payload : Minijson.t;  (** shipped to the worker verbatim *)
  batch : string;  (** affinity key; jobs with equal keys share a worker *)
}

val job : ?batch:string -> Minijson.t -> job
(** [batch] defaults to [""] (all jobs in one batch). *)

(** Clamp a user-supplied [-j] value to [[1, 64]]. *)
val clamp_jobs : int -> int

val map :
  ?jobs:int ->
  ?max_retries:int ->
  ?child_setup:(unit -> unit) ->
  worker:(Minijson.t -> Minijson.t) ->
  job list ->
  (Minijson.t, string) result array
(** [map ~worker jobs] applies [worker] to every job's payload and
    returns the results in job order.

    [jobs] (default [1]) is the number of worker processes; [<= 1]
    runs everything inline without forking.  [max_retries] (default
    [1]) bounds crash retries per job.  [child_setup] runs once in
    each freshly forked worker, after the pool's own setup (telemetry
    disabled, fault counters reset) and before any job.

    The caller must ensure [worker] only touches process-local state:
    workers are forked copies, and nothing they mutate is visible to
    the parent except the returned document. *)

(** A persistent worker pool with incremental submission, asynchronous
    completion and cancellation — the serving-layer counterpart of
    {!map}.  Single-threaded: all operations must be called from the
    process that created the pool. *)
module Pool : sig
  type t

  type ticket = int
  (** Identifies a submitted job until its completion is drained. *)

  type completion = {
    c_ticket : ticket;
    c_result : (Minijson.t, string) result;
  }

  val create :
    ?jobs:int ->
    ?max_retries:int ->
    ?retry_backoff:float ->
    ?respawn_backoff:float ->
    ?poison_threshold:int ->
    ?backoff_seed:int ->
    ?child_setup:(unit -> unit) ->
    worker:(Minijson.t -> Minijson.t) ->
    unit ->
    t
  (** Fork [jobs] (clamped to [[1, 64]], default [1]) persistent
      workers.  Unlike {!map} there is no inline path: a pool always
      runs its jobs in child processes, so the creating process (an
      event loop) is never blocked by a job.  [SIGPIPE] is set to
      ignore while the pool lives (restored by {!shutdown}).

      Supervision knobs (all default to the pre-hardening behavior of
      immediate, unbounded-rate action):

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

  val submit : t -> ?batch:string -> Minijson.t -> ticket
  (** Enqueue a job and dispatch it to an idle worker if one is free.
      Jobs sharing a [batch] key run, in submission order, on the same
      worker; without [batch] the job gets a private key (no affinity).
      Raises [Invalid_argument] after {!shutdown}. *)

  val cancel :
    t -> ticket -> [ `Cancelled_queued | `Cancelled_running | `Not_found ]
  (** Withdraw a job.  A queued job is removed outright; a running job
      is stopped by killing its worker (which is respawned) — neither
      will ever appear in {!poll} results.  [`Not_found] when the
      ticket is unknown or its completion was already drained. *)

  val queued : t -> int
  (** Jobs waiting for a worker — the backpressure signal. *)

  val in_flight : t -> int
  (** Jobs currently executing in a worker. *)

  val pending : t -> int
  (** [queued + in_flight]. *)

  type health = {
    h_workers : int;  (** configured slots *)
    h_alive : int;  (** slots with a live worker right now *)
    h_crashes : int;  (** worker crashes since [create] *)
    h_respawns : int;  (** crash-driven respawns (initial forks excluded) *)
    h_poisoned : int;  (** batches on the poison ledger *)
  }

  val health : t -> health
  (** Supervision snapshot — the daemon surfaces this in [stats]. *)

  val poisoned_batches : t -> string list
  (** Batch keys currently on the poison ledger (unordered). *)

  val chaos_kill : t -> int -> bool
  (** [chaos_kill t i] SIGKILLs the worker behind the [i]-th busy slot
      (modulo the busy count) — the service chaos harness's
      [service.worker.kill] injection.  Detection, retry, poisoning and
      respawn then exercise the ordinary crash machinery.  [false] when
      no worker is busy. *)

  val result_fds : t -> Unix.file_descr list
  (** Parent-side descriptors that become readable when an in-flight
      job completes — pass them to an external [select] loop, then call
      [poll ~timeout:0.] to collect. *)

  val poll : ?timeout:float -> t -> completion list
  (** Dispatch queued jobs to idle workers, wait up to [timeout]
      seconds (default: block until activity) for in-flight results,
      and return every completion accumulated since the last call, in
      completion order.  Returns immediately when nothing is pending. *)

  val shutdown : t -> unit
  (** Drop queued jobs, close the pipes and collect every worker
      process (escalating to [SIGKILL] after a grace period).
      Idempotent. *)
end
