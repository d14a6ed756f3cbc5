(** Blocking client for the [gdpcd] daemon — the [gdpc submit] backend
    and the building block of {!Loadgen}.

    Connections are synchronous: {!send} writes one framed request,
    {!recv} blocks for the next framed response.  A lockstep caller
    ({!rpc}, {!submit}) never has more than one request outstanding, so
    responses cannot interleave. *)

type t

val is_tcp : string -> bool
(** Whether an endpoint string names a TCP address ([host:port] with a
    numeric suffix) rather than a Unix-domain socket path — the same
    rule {!connect} applies.  Pure syntax; no resolution. *)

val connect :
  ?attempts:int -> ?connect_timeout:float -> ?io_timeout:float -> string -> t
(** Connect to an endpoint: [host:port] (TCP, when the suffix parses as
    a port) or a Unix-domain socket path.  Frames either way are bounded
    by {!Frame.default_max_frame}.  Retries [attempts] times
    (default 1) with a short growing backoff — lets a test or loadgen
    connect while the freshly forked daemon is still binding.  Raises
    [Unix.Unix_error] when every attempt fails.

    [connect_timeout] bounds each connection attempt (seconds; raises
    [ETIMEDOUT] past it — a dead TCP endpoint no longer hangs the
    client).  [io_timeout] bounds every subsequent read and write on
    the connection (via [SO_RCVTIMEO]/[SO_SNDTIMEO]); an expired read
    surfaces as [Error "i/o timeout"] from {!recv}, so a slow or hung
    server cannot wedge [gdpc submit]. *)

val fd : t -> Unix.file_descr
val close : t -> unit

val send : t -> Protocol.request -> unit
val recv : t -> (Protocol.response, string) result
(** Next framed response; [Error] on close or a malformed frame. *)

val rpc : t -> Protocol.request -> (Protocol.response, string) result
(** [send] then [recv]. *)

val submit : ?retries:int -> t -> Protocol.job -> (Protocol.response, string) result
(** Submit one job and wait for {e its} response (matching job id —
    unrelated interleaved responses are an [Error], since a lockstep
    client should never see any).

    [retries] (default 0) resubmits after a [Failed] response carrying
    a [retry_after_ms] hint — the server's admission-control
    backpressure — sleeping the hinted interval first.  Failures
    without the hint (compile errors, deadline misses) are never
    retried. *)
