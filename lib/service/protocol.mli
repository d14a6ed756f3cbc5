(** The [gdpcd] application protocol: typed requests and responses over
    the {!Frame} wire, the content-addressed cache key, and the one
    evaluation function both the daemon's workers and the inline
    [gdpc partition]-style path share — so a served result is
    byte-identical to a local run of the same job.

    {2 Wire shape}

    Requests carry [schema "gdp-service/2"] (the only version accepted)
    and an ["op"]:

    {v
    {"schema":"gdp-service/2","op":"submit","id":"j1","source":"...",
     "input":[1,2],"settings":{...},"deadline_ms":5000,"verify":false
     [,"trace_id":"t-..."]}
    {"schema":"gdp-service/2","op":"cancel","id":"j1"}
    {"schema":"gdp-service/2","op":"ping"}
    {"schema":"gdp-service/2","op":"stats"}
    {"schema":"gdp-service/2","op":"health"}
    {"schema":"gdp-service/2","op":"trace","trace_id":"t-..."}
    {"schema":"gdp-service/2","op":"metrics","format":"json"|"prometheus"}
    {"schema":"gdp-service/2","op":"shutdown"}
    v}

    Responses carry [schema "gdp-service-result/1"]; [trace] and
    [retry_after_ms] are optional members:

    {v
    {"schema":"gdp-service-result/1","op":"result","id":"j1",
     "cached":true,"result":{...}[,"trace":{...}]}
    {"schema":"gdp-service-result/1","op":"failed","id":"j1","reason":"..."
     [,"retry_after_ms":250][,"trace":{...}]}
    {"schema":"gdp-service-result/1","op":"cancelled","id":"j1"}
    {"schema":"gdp-service-result/1","op":"pong"}
    {"schema":"gdp-service-result/1","op":"stats","stats":{...}}
    {"schema":"gdp-service-result/1","op":"health","health":{...}}
    {"schema":"gdp-service-result/1","op":"trace","trace":{...}}
    {"schema":"gdp-service-result/1","op":"metrics","metrics":{...}}
    {"schema":"gdp-service-result/1","op":"metrics-text","text":"..."}
    {"schema":"gdp-service-result/1","op":"shutting-down"}
    {"schema":"gdp-service-result/1","op":"error","reason":"..."}
    v}

    Responses to [submit] arrive asynchronously, identified by the
    client-chosen job [id]; [ping]/[stats]/[health]/[trace]/[metrics]/
    [shutdown] replies are immediate.  One connection can interleave
    many jobs. *)

val schema : string
(** ["gdp-service/2"] — the request envelope. *)

val result_schema : string
(** ["gdp-service-result/1"] — response envelope. *)

type job = {
  id : string;  (** client-chosen; echoed in the response *)
  source : string;  (** MiniC program text *)
  input : int list;  (** workload vector, read by the program via [in(i)] *)
  settings : Gdp_core.Pipeline.Settings.t;
  deadline_ms : int option;
      (** total time budget; [Some d] with [d <= 0] fails immediately *)
  verify : bool;
      (** run the full differential check before answering (slower) *)
  trace_id : string option;
      (** request trace context: [None] lets the server assign one (it
          always answers with the id it used); a client-supplied id is
          propagated as-is.  Never part of the {!cache_key}. *)
}

type metrics_format = Json | Prometheus

type request =
  | Submit of job
  | Cancel of { id : string }
  | Ping
  | Stats
  | Health  (** read-only: worker/pool health + uptime *)
  | Trace of { trace_id : string }
      (** read-only: the recorded span tree of one recent request *)
  | Metrics of metrics_format
      (** read-only: the live metrics plane, as [gdp-metrics/1] JSON or
          Prometheus text exposition *)
  | Shutdown

type response =
  | Result of {
      id : string;
      cached : bool;
      result : Minijson.t;
      trace : Minijson.t option;
          (** per-request span record ([gdp-span/1]): trace id, cache
              tier and queue/exec/deliver timings — [None] only from a
              v1 server *)
    }
  | Failed of {
      id : string;
      reason : string;
      retry_after_ms : int option;
      trace : Minijson.t option;
    }
      (** [retry_after_ms] is the server's backpressure hint: [Some ms]
          on admission rejections means "same job may succeed after
          [ms]" — {!Client.submit} and [gdpc loadgen] honor it *)
  | Cancelled of { id : string }
  | Pong
  | Stats_reply of Minijson.t
  | Health_reply of Minijson.t  (** [gdp-health/1] *)
  | Trace_reply of Minijson.t  (** [gdp-trace/1] (see {!Metrics.Traces}) *)
  | Metrics_reply of Minijson.t  (** [gdp-metrics/1] *)
  | Metrics_text_reply of string  (** Prometheus text exposition *)
  | Shutting_down
  | Error_reply of string
      (** protocol-level failure (bad schema, unknown op, unknown trace
          id, ...) *)

val request_to_json : request -> Minijson.t

val request_of_json : Minijson.t -> (request, string) result
(** Strict: wrong schema, unknown op, missing or ill-typed fields and
    invalid embedded settings are all [Error] with the offender named.
    Any envelope other than {!schema} is rejected, naming the one this
    build speaks. *)

val response_to_json : response -> Minijson.t
val response_of_json : Minijson.t -> (response, string) result

val cache_key : job -> string
(** Content address of a job's artifact: a digest over the source text,
    the workload, the canonical settings JSON and the machine
    description the settings select.  The job [id], [deadline_ms],
    [trace_id] and the settings' [par_domains] do not participate — two
    submissions of the same compile share one artifact whatever they
    are called or traced as and however many domains they ask for.  A salt
    changes whenever the compiler starts producing different artifacts
    for the same job, so entries a durable store kept from an older
    build are misses, never stale hits. *)

val bench_name : job -> string
(** Deterministic per-content benchmark name ([svc-<digest prefix>]) —
    keys the front-end memo ({!Gdp_core.Pipeline.prepare_default}) so
    distinct sources never collide and repeated sources reuse one
    compile within a worker. *)

val evaluate_job : ?par_workers:int -> job -> (Minijson.t, string) result
(** Compile, partition and price the job under its settings
    ([Gdp_core.Pipeline.run], [Checked] mode) and render the result
    artifact: method, total cycles, dynamic/static moves, rhop runs and
    the object homes in a canonical (sorted) order.  Pure given the
    job's content, so the same job always yields the same bytes —
    the property the artifact cache and the duplicate-submission tests
    rely on.  [?par_workers] caps the domains a job may actually spin up
    (see [Gdp_core.Pipeline.run]); it never changes the artifact, so
    servers with different caps stay cache-compatible.
    [Error] carries the stage or verification failure. *)
