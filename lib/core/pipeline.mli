(** The end-to-end GDP pipeline: MiniC source -> optimized IR -> profile
    -> partitioning context -> method outcome -> cycle report, plus
    full verification. *)

type prepared = {
  bench : Benchsuite.Bench_intf.t;
  prog : Vliw_ir.Prog.t;
  reference : Vliw_interp.Interp.result;
}

(** The optimizer sequence every compile runs after parsing: scalar
    promotion, constant folding + copy propagation and DCE,
    if-conversion, DCE again ([promote] and [if_convert] default to on;
    [gdpc compile] exposes them).  Spans: [optimize] > [promote],
    [simplify], [dce], [ifconvert], [dce]. *)
val optimize :
  ?promote:bool -> ?if_convert:bool -> Vliw_ir.Prog.t -> Vliw_ir.Prog.t

(** Compile a benchmark (unrolling, then {!optimize}) and collect the
    reference run and profile. *)
val prepare : Benchsuite.Bench_intf.t -> prepared

(** [prepare], memoized by benchmark name — the front end is
    deterministic, so latency sweeps that revisit the same
    benchmark reuse one compile + profile.  The memo is guarded by an
    internal lock, so [Par] pool workers may warm it concurrently (the
    compile itself runs outside the lock; duplicate compiles of the
    same benchmark are equal and last write wins).  The memo is
    bounded: it resets when it outgrows the benchmark suite by a wide
    margin. *)
val prepare_default : Benchsuite.Bench_intf.t -> prepared

(** Drop the [prepare_default] memo, under its lock, so it is safe
    while [Par] worker domains are live.  Other memos are their
    owners': [Experiments.clear_cache] drops the sweep memo, and gdpcd's
    artifact cache is bounded.  A
    forked [Exec] worker gets a copy-on-write copy of the memo:
    clearing or filling it in the child never affects the parent. *)
val clear_caches : unit -> unit

(** Partitioning context on a machine (default: the paper's 2-cluster
    machine at 5-cycle move latency). *)
val context :
  ?machine:Vliw_machine.t ->
  ?merge_low_slack:bool ->
  prepared ->
  Partition.Methods.context

type evaluation = {
  outcome : Partition.Methods.outcome;
  report : Vliw_sched.Perf.report;
}

(** Full verification: the clustered program's interpretation and its
    cycle-level simulation must reproduce the reference outputs, and the
    simulator's cycle/move counts must equal the static model's.  The
    simulator executes the schedule the evaluation built, so that check
    compares its block visits with the profile. *)
val verify :
  prepared ->
  Partition.Methods.context ->
  evaluation ->
  (unit, string) result

type fallback = {
  failed_method : string;
  reason : string;  (** why verification or an invariant rejected it *)
}

type robust = {
  requested : Partition.Methods.t;
  used : Partition.Methods.t;  (** first method in the chain that passed *)
  evaluation : evaluation;
  fallbacks : fallback list;  (** failed attempts before [used], in order *)
}

val pp_fallback : fallback Fmt.t

(** {1 Settings}

    What a compile varies — the machine, the method and the
    intra-compile parallelism — as one first-class, serializable
    record.  The JSON form ([schema "gdp-settings/1"]) is what crosses
    the pipe to [Exec] pool workers and the [gdpcd] wire. *)

module Settings : sig
  type t = {
    machine : Machine_spec.t;  (** declarative machine description *)
    method_ : Partition.Methods.t;
    par_domains : int;
        (** intra-compile parallelism: domains used by the partitioning
            passes (default 1).  Only wall clock depends on it: the
            artifact is the same for every value and on either [Par]
            backend.  See [docs/parallelism.md]. *)
  }

  (** Paper defaults: the 2-cluster bus machine with 5-cycle moves, one
      domain. *)
  val default : Partition.Methods.t -> t

  (** The concrete machine the settings describe:
      [Machine_spec.resolve] of the spec.  Raises [Invalid_argument]
      for unrealizable specs (never for specs [of_json] accepted). *)
  val machine : t -> Vliw_machine.t

  (** Format version emitted by [to_json] (as a ["version"] field) and
      the only version [of_json] accepts.  A document without the field
      (version 1) or with an older one is rejected naming its version; a
      newer one with a message telling the operator to upgrade. *)
  val version : int

  (** [of_json (to_json s) = Ok s] for every [s].  [of_json] is strict:
      unknown schemas, other [version]s, unknown method names, shape
      mismatches {e and any field it does not know} (top-level or
      inside ["machine"]) are rejected with a descriptive [Error]
      naming the offender — a typo'd option must fail loudly rather
      than be silently ignored, especially now that settings documents
      arrive over the [gdpcd] wire.

      The machine travels as the ["machine"] field: [to_json] writes a
      gdp-machine/1 spec object, and [of_json] also takes a preset
      name. *)
  val to_json : t -> Minijson.t

  val of_json : Minijson.t -> (t, string) result
end

(** How much checking {!run} performs: [Plain] lets internal errors
    raise, [Checked] promotes invariant violations to [Error] and
    structurally validates the clustered assignment (with [verify],
    also the full differential check of {!verify} — needs
    [~prepared]), and [Robust] degrades along
    [Partition.Methods.fallback_chain] (GDP -> Profile Max -> Naive ->
    Unified): a method whose partition or schedule fails an invariant
    or (with [verify]) the differential check is recorded as a
    fallback and the next method is tried.  Failures count as detected
    faults and a successful fallback as a recovery ([Fault.counts]);
    [Robust] returns [Error] only when every method in the chain
    fails.  [Plain] and [Checked] record one [evaluate] span; [Robust]
    records an [evaluate-robust] span around one [evaluate] span per
    attempt. *)
type mode = Plain | Checked of { verify : bool } | Robust of { verify : bool }

type run_result =
  | Evaluated of evaluation  (** [Plain] and [Checked] modes *)
  | Degraded of robust  (** [Robust] mode *)

(** The one compile entry point.  The context is built from
    [~prepared] on the machine {!Settings.machine} describes, or
    supplied ready-made with [~ctx] (whose machine then wins — the
    settings' [machine] spec is ignored).  At least one of the two is
    required, and modes that verify against the reference run
    ([Checked {verify = true}], [Robust _]) need [~prepared].

    [?par_workers] caps how many of the [Settings.par_domains] domains
    actually run — a width limit for resource-constrained hosts (e.g. a
    loaded [gdpcd] server).  Like [par_domains] itself it never affects
    artifacts, so a capped run returns the same answer on fewer
    cores. *)
val run :
  ?prepared:prepared ->
  ?ctx:Partition.Methods.context ->
  ?mode:mode ->
  ?par_workers:int ->
  Settings.t ->
  (run_result, string) result
