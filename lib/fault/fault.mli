(** Deterministic fault injection for the GDP pipeline.

    A small registry of named injection points wired into the
    partitioner, move insertion, the scheduler, the simulator and —
    since the service hardening pass — the [gdpcd] serving layer
    (frame codec, client behavior, worker pool, on-disk artifact
    store).  A
    seed-driven spec ([parse_spec] / [arm]) selects which points fire
    and on which occurrence, so every injected fault is reproducible
    from the command line ([gdpc --inject SPEC --inject-seed N]).

    Disarmed, every entry point is a single boolean check — the
    pipeline's hot paths pay nothing.  Injection/detection/recovery
    counters are kept here (always) and mirrored into [Telemetry]
    (when a recording is enabled) as [fault.injected], [fault.detected]
    and [fault.recovered].

    See [docs/robustness.md] for the injection-point catalog and the
    degradation chain that consumes these signals. *)

type point = {
  name : string;  (** spec name, e.g. ["move.drop"] *)
  stage : string;  (** pipeline stage that hosts the site *)
  doc : string;  (** what firing the point corrupts *)
}

(** The documented injection points, in pipeline order. *)
val points : point list

val find_point : string -> point option

(** When a point fires.  [Nth k] fires exactly once, on the k-th
    opportunity (1-based); [Always] fires on every opportunity;
    [Every k] fires periodically, on every k-th opportunity — the
    workhorse of sustained chaos runs ([gdpc loadgen --chaos]). *)
type trigger = Nth of int | Always | Every of int

type spec
(** A parsed injection spec: one or more (point, trigger) entries. *)

(** [parse_spec s] parses ["point[@N|@N*|@*][,point...]"], e.g.
    ["move.drop"], ["sched.overbook@*"], ["service.worker.kill@5*"], or
    ["partition.infeasible,sim.move-latency@3"].  Unknown points and
    malformed triggers are reported as [Error]. *)
val parse_spec : string -> (spec, string) result

val spec_entries : spec -> (string * trigger) list
val pp_spec : Format.formatter -> spec -> unit

(** {1 Arming} *)

(** Arm a spec.  [seed] (default 0) drives the PRNG behind [rand], so a
    given (spec, seed) injects the same faults every run.  Arming
    resets occurrence and fault counters. *)
val arm : ?seed:int -> spec -> unit

val disarm : unit -> unit
val armed : unit -> bool

(** {1 Injection sites} *)

(** [fire name] is called at an injection site each time the fault
    could be injected; it returns [true] when the site must inject now.
    Counts the occurrence and, when firing, the injection. *)
val fire : string -> bool

(** [rand name n] draws a deterministic value in [0, n) for shaping an
    injected fault (which cluster, how many extra cycles, ...). *)
val rand : string -> int -> int

(** {1 Fault accounting} *)

type counts = { injected : int; detected : int; recovered : int }

(** Record that a pipeline check caught a fault (an invariant or
    verification failure). *)
val note_detected : unit -> unit

(** Record that the pipeline recovered from a detected fault (a
    fallback method passed verification). *)
val note_recovered : unit -> unit

val counts : unit -> counts
val reset_counts : unit -> unit
val pp_counts : Format.formatter -> counts -> unit
