(** Regression gates against committed baselines: attribution metrics
    (below) and compile speed (the last section).

    The attribution gate compares a fresh attribution run against a
    committed baseline JSON (the ["gdp-attrib/1"] documents written by
    [Explain.to_json] / [bench --report]) and reports every metric that
    regressed beyond a tolerance — the CI contract behind
    [bench --check FILE].

    Checked per (benchmark, method) row: [cycles], [dynamic_moves], and
    the non-useful attribution categories (transfer wait, memory
    serialization, issue stall) — the quantities the paper's argument
    says GDP keeps low.  A metric regresses when

      [current > baseline * (1 + tolerance/100)]

    (for small baselines an absolute slack of one cycle/move is allowed
    so integer jitter on tiny benchmarks does not trip the gate).
    Disappearing rows are regressions; new rows are not (they have no
    baseline yet). *)

type row = {
  rg_bench : string;
  rg_method : string;
  rg_cycles : int;
  rg_moves : int;
  rg_categories : (string * int) list;
}

type baseline = { b_latency : int; b_rows : row list }

(** Read a baseline out of an already-parsed ["gdp-attrib/1"] document
    (e.g. one a pool worker sent over a pipe); [where] names the source
    in error messages. *)
val of_json : ?where:string -> Minijson.t -> (baseline, string) result

val load : string -> (baseline, string) result

(** The comparable rows of a set of explanations. *)
val rows_of : Explain.t list -> row list

type issue = {
  i_bench : string;
  i_method : string;
  i_metric : string;
  i_baseline : int;
  i_current : int;  (** [-1] when the row disappeared *)
}

val pp_issue : issue Fmt.t

(** All regressions of [current] against [baseline] at [tolerance]
    percent; empty means the gate passes. *)
val check : tolerance:float -> baseline:baseline -> current:row list -> issue list

(** {1 Speed gate}

    The compile-speed contract behind [bench --check-speed BASELINE
    RESULTS]: fresh runs of [sh perfbench/run.sh] against committed runs
    of the same command.  A document is the runs' standard output
    concatenated; each run prints its [workload: W  seed: S  trace: T]
    line first and its one-line JSON result last, and the gate reads
    nothing else.  A run is known by its workload and whether it was
    traced.

    Every baseline run needs a current run that used the same seed,
    reports ["correct": true] with no failed operation, and meets the
    rule of each gated metric in the baseline run:
    - [dynamic_moves_total] and the traced counts [vliw_opt.ops_out],
      [vliw_analysis.dfg_edges], [partition.gdp_edgecut],
      [partition.rhop_calls], [vliw_sched.static_moves] and
      [vliw_sched.total_cycles] match exactly;
    - [cycles_geomean] matches to a relative 1e-9;
    - the calibrated timings [compiles_per_s], [compile_ms_p50],
      [compile_ms_p99] and the traced [partition.gdp_ms] and
      [partition.rhop_ms] stay within a factor of 2 of the baseline in
      their worse direction, the [better] field of the metric's entry in
      [BENCHMARK.json].

    Allocation counts are not gated: the baseline's OCaml release need
    not be the one under test.  Current runs without a baseline run are
    ignored. *)

type perf_run = {
  pr_workload : string;
  pr_traced : bool;
  pr_seed : int;
  pr_correct : bool;
  pr_failed : int;  (** failed operations *)
  pr_metrics : (string * float) list;
}

(** The runs of a document, in order; [where] names it in errors. *)
val runs_of_string : ?where:string -> string -> (perf_run list, string) result

val load_runs : string -> (perf_run list, string) result

type speed_issue = {
  s_workload : string;
  s_traced : bool;
  s_metric : string;
      (** a metric's name, or ["run"] (no such current run), ["seed"] or
          ["correct"] *)
  s_detail : string;
}

val pp_speed_issue : speed_issue Fmt.t

(** Every way [current] fails [baseline]; empty means the gate passes.
    [benchmark] is the parsed [BENCHMARK.json]. *)
val check_speed :
  benchmark:Minijson.t ->
  baseline:perf_run list ->
  perf_run list ->
  speed_issue list
