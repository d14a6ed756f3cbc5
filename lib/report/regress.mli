(** The speed gate: the compile-speed contract behind [bench
    --check-speed BASELINE RESULTS], fresh runs of [sh perfbench/run.sh]
    against committed runs of the same command.  A document is the runs' standard output
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
