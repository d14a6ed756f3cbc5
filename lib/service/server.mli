(** The [gdpcd] daemon: a single-threaded [select] event loop serving
    {!Protocol} requests over {!Frame}-framed Unix-domain (and
    optionally TCP) connections, dispatching compiles onto an
    {!Exec.Pool} and answering repeats from the content-addressed
    {!Cache}.

    {2 Job lifecycle}

    A [submit] is answered from the artifact cache when its
    {!Protocol.cache_key} is resident ([cached:true], no compile).
    Otherwise the job goes to the pool — unless an identical job is
    already in flight, in which case the new request {e coalesces} onto
    it: one compile runs, every waiter gets the artifact (the extra
    waiters as cache hits).  Jobs carry deadlines ([deadline_ms]); a
    job whose deadline passes before its result is ready is answered
    [failed "deadline exceeded"] and, when it was the last waiter, the
    underlying pool job is cancelled.  When [pending] jobs reach
    [max_pending] new submissions are rejected ([failed "overloaded"],
    with a [retry_after_ms] backpressure hint) instead of queued —
    backpressure, not collapse.

    Every submit is one request record, created when it arrives and
    ended exactly once, in one place, whichever way it ends: served
    from the cache, delivered, rejected, expired, cancelled (each of
    the caller's requests with the cancelled id is answered
    [cancelled]), dropped because its client disconnected, or failed
    by shutdown.  Ending a request bumps its outcome counter, builds
    and registers its one [gdp-trace/1] record, records its latency
    (delivered and cache-hit requests only), appends the record to the
    event log and answers the client if it is still connected.  Pool
    jobs nobody waits on any more are cancelled.

    {2 Brown-out}

    Between [brownout * max_pending] pending jobs and the hard cap the
    server degrades gracefully instead of falling over: level 1 sheds
    verification ([verify:true] runs unverified), levels 2 and 3
    additionally step the requested method down the
    [Partition.Methods.fallback_chain] ladder (GDP -> Profile Max ->
    Naive; never to Unified).  A degraded job is keyed by its degraded
    settings, so its artifact can never satisfy a later full-quality
    request from the cache.  [brownout >= 1.0] (the default) disables
    brown-out.

    {2 Durability}

    With [store_dir] set, the artifact cache is layered over a durable
    {!Store}: artifacts survive [kill -9] and restart (served as warm
    hits), the store is scrubbed at startup (corrupt entries
    quarantined and logged), and a corrupt or torn entry discovered at
    read time is quarantined and recompiled rather than served.

    {2 Chaos}

    [inject = Some (spec, seed)] arms {!Fault} for the serving layer:
    [service.worker.kill] SIGKILLs a busy pool worker on armed loop
    ticks and [service.cache.corrupt] flips a byte of freshly written
    store entries — both deterministic in (spec, seed).  The pool's own
    supervision (bounded retries with exponential backoff, poison-pill
    ledger, respawn backoff) turns these into recoveries, not outages.

    {2 Shutdown}

    [SIGTERM], [SIGINT] and the [shutdown] op all stop the loop
    gracefully: every outstanding request is answered
    [failed "server shutting down"], the pool is shut down (workers
    reaped), sockets are closed, the Unix socket path is unlinked, and
    — when [trace] is set — the telemetry snapshot is written as a
    Chrome trace.

    {2 Counters}

    Every counter and gauge is named once, in one list in the server:
    its [stats] ([gdp-service-stats/1]) path and, where it has one, its
    metrics name.  [stats], the [metrics] JSON and the Prometheus
    exposition all render from that list: [requests] (decoded requests
    of every op), [jobs] (submits), [connections] (open now),
    [connections_total], [served], [coalesced], [rejected],
    [deadline_misses], the brown-out, pool, cache, trace-registry and
    store tallies.  With [trace] set the Chrome trace carries the
    pool's own [exec.*] spans and metrics.

    {2 Tracing and the metrics plane}

    Every submission gets a trace id (client-supplied [trace_id] or
    server-assigned).  The id rides the worker payload, so the forked
    worker records its compile's stages under it (spans to depth 1,
    in whole microseconds); on completion the
    server assembles a [gdp-trace/1] span record — request, queue,
    exec, deliver segments plus the worker's own pipeline spans —
    returns it inline in the [result]/[failed] response, and retains it
    in a bounded registry served by the [trace] op.  Cache hits get a
    [cache.memory]/[cache.store] span instead of queue/exec; every
    other ending gets a lone request span, and is registered too.  The
    record's [cache_tier] says which way the request went: [memory] or
    [store] for a cache hit, [compute] once dispatched to the pool,
    [coalesced] once parked on an identical compile, [none] otherwise.
    Spans use the one {!Telemetry.span_to_json} encoding.  Tracing
    never touches the [result] artifact bytes or the cache key.

    The [metrics] op renders sliding-window (60 s) per-method latency
    and queue-depth histograms with p50/p95/p99 ({!Metrics}) plus the
    daemon's counters and gauges, as [gdp-metrics/1] JSON or Prometheus
    text exposition.  [stats], [trace] and [metrics] are read-only and
    answered inline; [ping] is the liveness probe.

    With [events] set, each request appends its [gdp-trace/1] record
    to that file as one line when it ends, byte-identical to what
    [trace] answers for it: one line per submit, whichever way it
    ended. *)

type config = {
  socket_path : string option;  (** Unix-domain listening socket *)
  tcp : (string * int) option;  (** optional TCP (host, port) listener *)
  jobs : int;  (** pool worker processes, clamped like [-j] *)
  cache_capacity : int;  (** artifact cache bound (entries) *)
  max_pending : int;  (** reject submissions beyond this many pending *)
  trace : string option;  (** write a Chrome trace here on shutdown *)
  events : string option;
      (** append each request's [gdp-trace/1] record here, one line
          each (truncated at startup); [None] disables the event log *)
  par_workers : int option;
      (** cap on the domains one job's intra-compile parallelism may
          actually use ([None] = the job's own [par_domains] request).
          An execution-width limit only — artifacts never depend on it
          (see {!Protocol.evaluate_job}), so servers with different
          caps stay cache-compatible. *)
  store_dir : string option;
      (** durable artifact store directory; [None] = memory-only cache *)
  brownout : float;
      (** fraction of [max_pending] at which brown-out begins;
          [>= 1.0] disables it *)
  inject : (string * int) option;
      (** server-side chaos: a {!Fault} spec and seed, armed at startup
          ([None] disarms, so a forked server never inherits the
          parent's spec) *)
}

val default_config : config
(** Socket [gdpcd.sock] in the working directory, no TCP, 2 workers,
    256-entry cache, 64-job pending bound, no trace, no event log, no
    intra-compile domain cap, no durable store, brown-out disabled, no
    chaos.  Frames are bounded by {!Frame.default_max_frame}. *)

val run : config -> unit
(** Bind, serve until a shutdown trigger, clean up.  Raises
    [Invalid_argument] when the config names no listener at all, and
    [Unix.Unix_error] when binding fails (stale live socket, privileged
    port, ...).  A leftover socket {e file} that nothing is listening
    on is replaced silently. *)
