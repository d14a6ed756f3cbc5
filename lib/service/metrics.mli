(** The [gdpcd] live metrics plane: sliding-window latency and
    queue-depth histograms, rendered on demand as [gdp-metrics/1] JSON
    or Prometheus text exposition, plus a bounded registry of recent
    request traces for the [TRACE <id>] admin verb.

    The histograms are {!Telemetry.Winhist} instances (default 6 slots
    of 10 s — a 60 s sliding window), so every quantile the plane
    reports reflects {e recent} traffic, not lifetime totals.  Lifetime
    counters (served, shed, degraded, poisoned workers, cache tiers...)
    and current gauges live in the server's own state; the server passes
    them to the renderers as [(kind, name, value)] points at render
    time, so this module holds no global state and needs no locking
    discipline beyond Winhist's own.

    Quantiles inherit Winhist's documented error bound
    ({!Telemetry.Winhist.max_rel_error}, ~9% relative). *)

type t

type kind = Counter | Gauge

type point = kind * string * float
(** A scalar the server samples at render time.  Names are
    Prometheus-style snake_case {e without} the [gdpcd_] prefix (the
    renderers add it). *)

val create : ?clock:(unit -> float) -> ?slot_s:float -> ?slots:int -> unit -> t
(** [clock] returns microseconds (defaults to wall time) and is shared
    by every histogram the plane creates; [slot_s]/[slots] are passed
    to {!Telemetry.Winhist.create} (defaults 10 s x 6). *)

val observe_latency : t -> method_:string -> float -> unit
(** Record one request's server-side latency in microseconds under its
    method label (["submit"], ["submit_hit"], ["stats"], ...).  The
    per-method histogram is created on first use. *)

val observe_queue_depth : t -> int -> unit
(** Record the worker-pool pending depth, sampled at submission. *)

val to_json : t -> point list -> Minijson.t
(** The [gdp-metrics/1] document: [window_s], per-method [latency_us]
    histograms (count/sum/mean/p50/p95/p99), [queue_depth], and the
    given scalars split into ["counters"] and ["gauges"] objects. *)

val to_prometheus : t -> point list -> string
(** Prometheus text exposition of the same data:
    [gdpcd_request_latency_us{method="...",quantile="0.5|0.95|0.99"}]
    summaries (with [_sum]/[_count]), [gdpcd_queue_depth] likewise, and
    one [gdpcd_<name>] line per scalar — every metric preceded by
    well-formed [# HELP] / [# TYPE] lines, label values escaped. *)

(** Bounded FIFO registry of recent request traces, serving the
    [TRACE <id>] admin verb.  When full, adding evicts the oldest
    entry — a crashed or idle daemon never grows without bound. *)
module Traces : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity: 512 traces.  Raises [Invalid_argument] when
      [capacity < 1]. *)

  val add : t -> trace_id:string -> Minijson.t -> unit
  (** Register a completed request's [gdp-trace/1] document.  Re-adding
      an id replaces its document. *)

  val find : t -> string -> Minijson.t option

  val length : t -> int
  (** Traces currently retained (<= capacity). *)

  val total : t -> int
  (** Traces ever added — the [traces_recorded] counter. *)
end
