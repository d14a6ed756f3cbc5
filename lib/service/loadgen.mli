(** Load generator for the [gdpcd] daemon — the [gdpc loadgen] backend,
    which CI's service and chaos smokes drive.

    Drives [connections] concurrent lockstep clients from one process
    (a [select] loop, no threads).  Each request is a small synthetic
    MiniC program; a [duplicate_ratio] fraction of requests is drawn
    from a small shared set of programs (so they hit the artifact
    cache or coalesce), the rest are unique (every constant in the
    template differs).  The request stream is reproducible from
    [seed].

    Two arrival models:
    - {e closed loop}: each connection fires its next request the
      moment the previous response lands — measures peak capacity.
    - {e open loop} (with [rate] requests/second): requests are due on
      a fixed global schedule and latency is measured from the {e due}
      time, so server-side queueing shows up in the percentiles
      instead of being hidden by client back-off.

    {2 Chaos mode}

    With [chaos] set to a {!Fault} spec (e.g.
    ["service.frame.torn@3*,service.client.disconnect@7*"]) the
    generator becomes a hostile client: armed sends are replaced by
    torn frames (half a frame, then a hangup), bit-flipped frames,
    slow-loris byte-drip, or a full submit followed by an immediate
    disconnect.  Every injection is deterministic in
    ([chaos], [inject_seed]) and counted in the summary ([injected]).
    Chaos requests are retried on fresh connections (bounded by
    [max_attempts]); a request that exhausts its attempts counts as
    [gave_up].

    The generator also cross-checks every successful response: all
    artifacts for one program under one settings document must be
    byte-identical ([artifact_mismatches] must stay 0 — a corrupt
    cache entry or a half-written store file that leaks to a client
    shows up here).

    Admission-control rejections carrying [retry_after_ms] are honored:
    the request is re-queued for the hinted time ([shed] and [retries]
    count the events) rather than counted as a failure. *)

type mode = Closed | Open of float  (** requests per second *)

type config = {
  endpoint : string;  (** [host:port] or Unix socket path *)
  connections : int;
  requests : int;  (** total requests to issue *)
  duplicate_ratio : float;  (** [0..1] *)
  mode : mode;
  method_ : Partition.Methods.t;
  deadline_ms : int option;  (** attached to every job *)
  seed : int;
  chaos : string option;  (** {!Fault} spec for client-side injection *)
  inject_seed : int;  (** seeds the chaos spec (and its [rand]) *)
  max_attempts : int;  (** per-request bound across retries *)
}

val default_config : config
(** 4 connections, 40 requests, 0.5 duplicate ratio, closed loop, GDP,
    no deadline, endpoint [gdpcd.sock], no chaos, 5 attempts. *)

type summary = {
  requests : int;
  succeeded : int;
  failed : int;
  cache_hits : int;  (** responses answered [cached:true] *)
  duplicates_sent : int;
  elapsed_s : float;
  throughput_cps : float;  (** succeeded compiles per second *)
  p50_us : float;
  p95_us : float;
  p99_us : float;
  mean_us : float;
  concurrency : int;
  shed : int;  (** admission rejections carrying [retry_after_ms] *)
  retries : int;  (** re-submissions (after shedding or chaos) *)
  injected : int;  (** chaos behaviors performed *)
  gave_up : int;  (** requests that exhausted [max_attempts] *)
  artifact_mismatches : int;  (** MUST be 0: artifact bytes diverged *)
  traced : int;  (** successful responses that carried a trace record *)
  server_p50_us : float;
      (** percentiles of the {e server-side} total ([total_us] from
          each response's trace record) — against [p50_us] and friends
          this splits client-observed latency into server time vs
          wire/client overhead; [0.] when nothing was traced *)
  server_p95_us : float;
  server_p99_us : float;
  server_mean_us : float;
}

val run : config -> summary
(** Issue the whole request stream and aggregate.  Raises
    [Invalid_argument] on a non-positive request/connection count or a
    malformed [chaos] spec, [Failure] when a Unix-socket endpoint does
    not exist at all (fail fast, not 20 connect retries against
    nothing), and [Unix.Unix_error] when the endpoint refuses
    connections. *)

type server_handle = { sh_pid : int; sh_socket : string }

val spawn_server :
  ?jobs:int ->
  ?cache_capacity:int ->
  ?max_pending:int ->
  ?brownout:float ->
  ?store_dir:string ->
  ?inject:string * int ->
  ?trace:string ->
  ?events:string ->
  unit ->
  server_handle
(** Fork a private daemon on a fresh temp-dir Unix socket, wait for the
    socket to appear (raising [Failure] if the child dies before
    binding or takes over 5 s), and return its pid and endpoint.  The
    caller owns the process — pair with {!stop_server}.
    [store_dir]/[brownout]/[inject]/[events] map onto the corresponding
    {!Server.config} fields, so durability tests can [kill -9] the
    daemon ({!stop_server} with [~signal:Sys.sigkill]) and restart it
    on the same store directory. *)

val stop_server : ?signal:int -> server_handle -> unit
(** Signal the daemon ([SIGTERM] by default), reap it (escalating to
    [SIGKILL] if it ignores the signal) and unlink its socket. *)

val with_local_server :
  ?jobs:int ->
  ?cache_capacity:int ->
  ?max_pending:int ->
  ?brownout:float ->
  ?store_dir:string ->
  ?inject:string * int ->
  ?trace:string ->
  ?events:string ->
  (string -> 'a) ->
  'a
(** [spawn_server], run the continuation with the endpoint, then
    [stop_server] — the self-contained harness behind [gdpc loadgen]
    and the tests. *)
