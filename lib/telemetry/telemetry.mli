(** Pipeline-wide tracing and counters.

    A global telemetry registry of two kinds of fact: hierarchical
    wall-clock spans ([with_span], annotated with [span_arg]) and
    monotonic integer counters ([incr]), each of which reads as a sum
    over the recording.  A fact about one compile (its cut edges, its
    cycle count) travels in the value that computes it; its counter
    adds it into the run's total.  Two sinks render a snapshot: a
    Chrome trace-event JSON exporter (open the file in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}) and a
    plain-text span tree with self/total times followed by the
    counters.

    Telemetry is disabled by default and near-zero-cost in that state:
    every recording entry point checks one boolean and returns.  Enable
    it around the region of interest (or use [capture] for an isolated
    recording), then render a [snapshot] through a sink.

    Domain safety (see [Par]): counters may be recorded from worker
    domains — the counter table is lock-guarded, so concurrent [incr]s
    merge exactly.  Span recording stays on the main domain: [with_span]
    called from a worker just runs its body (workers' spans are dropped
    rather than interleaved into the main stack).
    [enable]/[disable]/[reset]/[snapshot]/[capture] are main-domain
    operations; call them outside parallel regions.

    Diagnostic messages go through the [Logs] library under the
    ["telemetry"] source. *)

type span = {
  id : int;  (** unique per recording, increasing in open order *)
  parent : int option;  (** id of the enclosing span, if any *)
  name : string;
  start_us : float;  (** clock value when the span opened, microseconds *)
  dur_us : float;  (** wall-clock duration, microseconds *)
  args : (string * string) list;  (** free-form key/value annotations *)
}

type snapshot = {
  spans : span list;  (** completed spans, in start order *)
  counters : (string * int) list;  (** sorted by name *)
}

(** {1 Recording state} *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

(** Drop all recorded spans and counters (open spans survive). *)
val reset : unit -> unit

(** Override the clock (microsecond readings) — for deterministic tests.
    [set_clock None] restores the wall clock, which reads whole
    microseconds (the resolution of [gettimeofday]). *)
val set_clock : (unit -> float) option -> unit

(** {1 Recording} *)

(** [with_span name f] runs [f] inside a span.  The span is recorded
    (closed) even if [f] raises.  When telemetry is disabled this is
    just [f ()]. *)
val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Attach an annotation to the innermost open span (no-op when disabled
    or when no span is open). *)
val span_arg : string -> string -> unit

(** Add [by] (default 1) to a monotonic counter, which reads as the
    sum over the recording.  Raises [Invalid_argument] on a negative
    increment. *)
val incr : ?by:int -> string -> unit

(** Current value of a counter (0 when unknown). *)
val counter_value : string -> int

(** Microsecond reading of the telemetry clock, for callers that
    measure an interval themselves and record it with [record_span]. *)
val now_us : unit -> float

(** Record an already-measured interval as a completed span (no-op when
    disabled).  [start_us] must come from [now_us] so the recorded
    interval and [with_span] spans share one clock.  The span is
    parented under the innermost open span — asynchronously completed
    work (e.g. the process pool's jobs) lands in the timeline of the
    phase that dispatched it. *)
val record_span :
  ?args:(string * string) list ->
  string ->
  start_us:float ->
  dur_us:float ->
  unit

(** [timed name f] measures [f] with the telemetry clock and returns the
    elapsed seconds alongside the result.  When telemetry is enabled the
    measurement is also recorded as a span, so externally reported times
    and the trace come from the same clock. *)
val timed : string -> (unit -> 'a) -> 'a * float

(** {1 Snapshots} *)

(** The completed spans and counters recorded so far. *)
val snapshot : unit -> snapshot

(** [capture f] runs [f] with telemetry enabled on a fresh, private
    recording and returns the resulting snapshot; the previous global
    recording state (including enabledness) is restored afterwards, even
    if [f] raises.

    With [~max_depth:d] (default: unbounded) the recording keeps spans
    at depth [d] or less, a root being depth 0.  A [with_span] nested
    deeper runs its body unrecorded, a [record_span] there is dropped,
    and a [span_arg] inside an unrecorded span is dropped too (it is
    not attached to the recorded ancestor).  Counters count at every
    depth. *)
val capture : ?max_depth:int -> (unit -> 'a) -> 'a * snapshot

module Snapshot : sig
  val spans_named : snapshot -> string -> span list

  (** Sum of the durations of all spans with this name, in seconds. *)
  val total_seconds : snapshot -> string -> float

  val find_counter : snapshot -> string -> int option

  (** Direct children of a span, in start order. *)
  val children : snapshot -> span -> span list
end

(** {1 Span codec}

    The one JSON shape of a span, shared by every document that carries
    spans across a process or wire boundary (gdpcd's [gdp-trace/1]
    records and the worker completions they are built from). *)

(** [{id, parent, name, start_us, dur_us}] with [parent] [null] for a
    root, plus [args] (an object of strings) when the span has any. *)
val span_to_json : span -> Minijson.t

(** Inverse of [span_to_json]; [None] when a required field is missing
    or mistyped.  A missing [args] member reads as no args. *)
val span_of_json : Minijson.t -> span option

(** {1 Sinks} *)

module Sink : sig
  (** Chrome trace-event JSON (one complete ["X"] event per span, one
      ["C"] counter sample per counter).  Load in [chrome://tracing] or
      Perfetto. *)
  val chrome_trace : Format.formatter -> snapshot -> unit

  val write_chrome_trace : string -> snapshot -> unit

  (** Plain-text span tree: spans aggregated by name under their parent,
      with total time, self time (total minus direct children) and call
      counts. *)
  val span_tree : Format.formatter -> snapshot -> unit

  (** Plain-text counter table, sorted by name. *)
  val counter_table : Format.formatter -> snapshot -> unit

  (** [span_tree] followed by [counter_table]: what [gdpc --stats]
      prints. *)
  val summary : Format.formatter -> snapshot -> unit

  (** [summary] to a file, so CI can archive stats without scraping
      stdout (the [gdpc --stats-file] backend). *)
  val write_summary : string -> snapshot -> unit
end

(** {1 Sliding-window histograms}

    gdpcd's live latency and queue-depth distributions: a ring of time
    slots (default 6 slots of 10 s — a one-minute sliding
    window) whose stale slots expire as the clock advances, so
    [quantile] always answers over recent observations only.  Values go
    into sub-octave log-scale buckets (4 per octave); a quantile
    estimate is the geometric midpoint of its bucket, so for values
    [>= 1] the estimate is within a factor of [2^(1/8)] (about 9%,
    {!Winhist.max_rel_error}) of the exact rank-based quantile.  Values
    below 1 share one bucket and estimate as 0.5.

    Mutation and reads are guarded by a per-instance [Par.Lock], so
    worker domains may observe concurrently (same contract as the
    global counter table).  Instances are independent of the global
    telemetry state: they record even when telemetry is disabled. *)
module Winhist : sig
  type t

  val create : ?clock:(unit -> float) -> ?slot_s:float -> ?slots:int -> unit -> t
  (** [clock] returns microseconds (defaults to the wall clock; inject
      a fake for deterministic tests — this clock is deliberately
      independent of {!set_clock}).  [slot_s] is the width of one slot
      in seconds (default 10), [slots] the ring size (default 6).
      Raises [Invalid_argument] when [slot_s <= 0] or [slots < 1]. *)

  val observe : t -> float -> unit

  val count : t -> int
  (** Observations currently inside the window. *)

  val sum : t -> float

  val min_max : t -> (float * float) option
  (** Exact extremes of the windowed observations; [None] when empty. *)

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [0, 1] ([q] is clamped).  0 when the
      window is empty. *)

  val quantiles : t -> float list -> float list
  (** All quantiles from one consistent merge of the window (a
      concurrent [observe] cannot skew p50 against p99). *)

  val window_s : t -> float
  (** Total window span in seconds ([slot_s * slots]). *)

  val max_rel_error : float
  (** Documented bucketing error bound: [2^(1/8) - 1] (~0.09) relative
      to the exact quantile, for values [>= 1]. *)

  val to_json : t -> Minijson.t
  (** [{count, sum, mean, p50, p95, p99, window_s}]. *)
end
