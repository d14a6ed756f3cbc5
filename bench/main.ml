(* Benchmark harness regenerating every table and figure of the paper.

   Usage:
     dune exec bench/main.exe                -- run everything
     dune exec bench/main.exe -- fig2        -- one experiment
     dune exec bench/main.exe -- list        -- list experiment names

   Flags (before experiment names):
     --timings       print a per-experiment wall-time table at the end
     --trace FILE    record telemetry and write a Chrome trace
     --report DIR    write per-benchmark attribution reports (MD/CSV/JSON)
     --baseline FILE write the attribution baseline JSON (gdp-attrib/1)
     --check FILE    regression gate: diff the current run against a
                     committed baseline, exit non-zero on regressions
     --tolerance PCT allowed relative growth for --check (default 2%)
     -j, --jobs N    fan the standard sweep and the attribution runs over
                     N worker processes (default 1 = in-process;
                     results are identical, the pool only changes wall
                     clock).  The figures' sweeps run first, as one
                     "sweeps" row in --timings, so the figures' own rows
                     are render time
     --check-speed BASELINE RESULTS
                     speed gate: the concatenated standard output of
                     `sh perfbench/run.sh` runs (RESULTS) against a
                     committed set of the same runs (BASELINE), with
                     metric directions from BENCHMARK.json; run from
                     the repository root

   When only report, baseline and check flags (--check-speed included)
   are given, the figure sweep is skipped — the gates run on their own.

   Experiments: table1 fig2 fig7 fig8a fig8b fig9a fig9b fig10
   compile-time ablate-merge ablate-imbalance ablate-clusters
   ablate-bug ablate-hetero scenario-matrix *)

open Gdp_core

let ppf = Fmt.stdout

let fig2 () = Experiments.render_figure2 ppf (Experiments.figure2 ())

let fig7 () =
  Experiments.render_performance ppf
    (Experiments.performance ~move_latency:1 ())
    ~figure_name:"Figure 7"

let fig8a () =
  Experiments.render_performance ppf
    (Experiments.performance ~move_latency:5 ())
    ~figure_name:"Figure 8(a)"

let fig8b () =
  Experiments.render_performance ppf
    (Experiments.performance ~move_latency:10 ())
    ~figure_name:"Figure 8(b)"

let fig9 which () =
  let bench = Benchsuite.Suite.find which in
  Exhaustive.render ppf (Exhaustive.run bench)

let fig10 () =
  Experiments.render_figure10 ppf (Experiments.performance ~move_latency:5 ())

let table1 () = Experiments.render_table1 ppf ()

(* set from -j before any experiment runs, so the scenario matrix (a
   6-machine sweep, much wider than any single figure) can fan its
   cells over the same worker pool as the standard-sweep prefetch *)
let sweep_jobs = ref 1

let scenario_matrix () =
  Experiments.render_scenario_matrix ppf
    (Experiments.scenario_sweep ~jobs:!sweep_jobs ())

let compile_time () =
  Experiments.render_compile_time ppf (Experiments.compile_time ())

let ablate_merge () =
  Ablations.render_merge_ablation ppf (Ablations.merge_ablation ())

let ablate_imbalance () =
  Ablations.render_imbalance ppf (Ablations.imbalance_sweep ())

let ablate_clusters () =
  Ablations.render_four_clusters ppf (Ablations.four_clusters ())

let ablate_bug () = Ablations.render_bug ppf (Ablations.bug_comparison ())

let ablate_hetero () =
  Ablations.render_heterogeneous ppf (Ablations.heterogeneous ())

let experiments =
  [
    ("table1", table1);
    ("fig2", fig2);
    ("fig7", fig7);
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("fig9a", fig9 "rawcaudio");
    ("fig9b", fig9 "rawdaudio");
    ("fig10", fig10);
    ("compile-time", compile_time);
    ("ablate-merge", ablate_merge);
    ("ablate-imbalance", ablate_imbalance);
    ("ablate-clusters", ablate_clusters);
    ("ablate-bug", ablate_bug);
    ("ablate-hetero", ablate_hetero);
    ("scenario-matrix", scenario_matrix);
  ]

(* each experiment runs under a telemetry span so the timing table, the
   trace and the Section-4.5 numbers all come from one clock *)
let run_timed name f =
  let (), secs = Telemetry.timed ("experiment:" ^ name) f in
  (name, secs)

let render_timings rows =
  Fmt.pr "@.Per-experiment wall time (telemetry clock)@.";
  Fmt.pr "%-18s %10s@." "experiment" "seconds";
  List.iter (fun (n, s) -> Fmt.pr "%-18s %10.3f@." n s) rows;
  Fmt.pr "%-18s %10.3f@." "TOTAL"
    (List.fold_left (fun a (_, s) -> a +. s) 0. rows)

(* ------------------------------------------------------------------ *)
(* Attribution reports and the metrics regression gate (--report,
   --baseline, --check).  Reports and baselines are produced at the
   paper's default 5-cycle latency; --check re-runs at whatever latency
   the baseline was recorded at.                                       *)

let attrib_latency = 5

(* One explanation per suite benchmark, computed on [jobs] worker
   processes; a benchmark whose explanation fails is reported and left
   out. *)
let explanations ~jobs ~move_latency =
  let benches = Experiments.default_benches () in
  let results =
    Exec.map ~jobs
      ~worker:(Gdp_report.Explain.explain_bench ~move_latency)
      (List.map
         (fun (b : Benchsuite.Bench_intf.t) ->
           Exec.job ~batch:b.Benchsuite.Bench_intf.name b)
         benches)
  in
  List.concat
    (List.mapi
       (fun i (b : Benchsuite.Bench_intf.t) ->
         match results.(i) with
         | Ok e -> [ e ]
         | Error m ->
             Fmt.epr "warning: explain %s failed: %s@."
               b.Benchsuite.Bench_intf.name m;
             [])
       benches)

(** Returns [false] when the regression gate failed. *)
let run_attrib ~jobs ~report ~baseline ~check ~tolerance : bool =
  (match report with
  | Some dir ->
      let files =
        Gdp_report.Explain.write_reports ~dir
          (explanations ~jobs ~move_latency:attrib_latency)
      in
      List.iter (fun f -> Fmt.pr "wrote %s@." f) files
  | None -> ());
  (match baseline with
  | Some path ->
      Minijson.write_rows path
        (Gdp_report.Explain.to_json
           (explanations ~jobs ~move_latency:attrib_latency));
      Fmt.pr "wrote %s@." path
  | None -> ());
  match check with
  | None -> true
  | Some path -> (
      match Gdp_report.Regress.load path with
      | Error m ->
          Fmt.epr "check: cannot load baseline: %s@." m;
          false
      | Ok base ->
          let current =
            Gdp_report.Regress.rows_of
              (explanations ~jobs
                 ~move_latency:base.Gdp_report.Regress.b_latency)
          in
          let issues =
            Gdp_report.Regress.check ~tolerance ~baseline:base ~current
          in
          if issues = [] then begin
            Fmt.pr
              "check: OK — %d baseline row(s) within %.1f%% (latency %d)@."
              (List.length base.Gdp_report.Regress.b_rows)
              tolerance base.Gdp_report.Regress.b_latency;
            true
          end
          else begin
            List.iter
              (fun i ->
                Fmt.epr "check: REGRESSION: %a@." Gdp_report.Regress.pp_issue i)
              issues;
            Fmt.epr "check: %d regression(s) beyond %.1f%%@."
              (List.length issues) tolerance;
            false
          end)

(* ------------------------------------------------------------------ *)
(* The speed gate (--check-speed BASELINE RESULTS).  It reads
   BENCHMARK.json for each timing's direction, so it runs from the
   repository root, as perfbench/run.sh does.                          *)

let run_check_speed (baseline, results) : bool =
  let module R = Gdp_report.Regress in
  match
    ( R.load_runs baseline,
      R.load_runs results,
      Minijson.parse_file "BENCHMARK.json" )
  with
  | Error m, _, _ | _, Error m, _ ->
      Fmt.epr "check-speed: %s@." m;
      false
  | _, _, Error m ->
      Fmt.epr "check-speed: BENCHMARK.json: %s@." m;
      false
  | Ok base, Ok current, Ok benchmark -> (
      match R.check_speed ~benchmark ~baseline:base current with
      | [] ->
          Fmt.pr "check-speed: OK — %d baseline run(s) matched@."
            (List.length base);
          true
      | issues ->
          List.iter (Fmt.epr "check-speed: FAIL: %a@." R.pp_speed_issue) issues;
          Fmt.epr "check-speed: %d issue(s)@." (List.length issues);
          false)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let jobs = ref 1 in
  let check_speed = ref None in
  let rec parse_flags timings trace report baseline check tolerance = function
    | "--timings" :: rest ->
        parse_flags true trace report baseline check tolerance rest
    | "--trace" :: file :: rest ->
        parse_flags timings (Some file) report baseline check tolerance rest
    | [ "--trace" ] ->
        Fmt.epr "--trace needs a file argument@.";
        exit 1
    | "--report" :: dir :: rest ->
        parse_flags timings trace (Some dir) baseline check tolerance rest
    | [ "--report" ] ->
        Fmt.epr "--report needs a directory argument@.";
        exit 1
    | "--baseline" :: file :: rest ->
        parse_flags timings trace report (Some file) check tolerance rest
    | [ "--baseline" ] ->
        Fmt.epr "--baseline needs a file argument@.";
        exit 1
    | "--check" :: file :: rest ->
        parse_flags timings trace report baseline (Some file) tolerance rest
    | [ "--check" ] ->
        Fmt.epr "--check needs a file argument@.";
        exit 1
    | "--check-speed" :: base :: results :: rest ->
        check_speed := Some (base, results);
        parse_flags timings trace report baseline check tolerance rest
    | "--check-speed" :: _ ->
        Fmt.epr "--check-speed needs a baseline and a results file@.";
        exit 1
    | "--tolerance" :: pct :: rest -> (
        match float_of_string_opt pct with
        | Some t when t >= 0. ->
            parse_flags timings trace report baseline check t rest
        | _ ->
            Fmt.epr "--tolerance needs a non-negative percentage@.";
            exit 1)
    | [ "--tolerance" ] ->
        Fmt.epr "--tolerance needs a percentage argument@.";
        exit 1
    | ("-j" | "--jobs") :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := Exec.clamp_jobs n;
            parse_flags timings trace report baseline check tolerance rest
        | _ ->
            Fmt.epr "-j needs a positive worker count@.";
            exit 1)
    | [ ("-j" | "--jobs") ] ->
        Fmt.epr "-j needs a worker count argument@.";
        exit 1
    | rest -> (timings, trace, report, baseline, check, tolerance, rest)
  in
  let timings, trace, report, baseline, check, tolerance, args =
    parse_flags false None None None None 2.0 args
  in
  let jobs = !jobs in
  sweep_jobs := jobs;
  let check_speed = !check_speed in
  let attrib_only =
    args = []
    && (report <> None || baseline <> None || check <> None
       || check_speed <> None)
  in
  if timings || trace <> None then Telemetry.enable ();
  let finish rows =
    if timings then render_timings rows;
    (match trace with
    | Some path ->
        Telemetry.Sink.write_chrome_trace path (Telemetry.snapshot ())
    | None -> ());
    let attrib_ok = run_attrib ~jobs ~report ~baseline ~check ~tolerance in
    let speed_ok = Option.fold ~none:true ~some:run_check_speed check_speed in
    if not (speed_ok && attrib_ok) then exit 1
  in
  (* which standard-sweep latencies the named experiments will need: the
     whole set is prefetched on the -j workers up front, and the figures
     then render from cache hits *)
  let sweep_latencies names =
    let needs =
      [
        ("fig2", [ 1; 5; 10 ]);
        ("fig7", [ 1 ]);
        ("fig8a", [ 5 ]);
        ("fig8b", [ 10 ]);
        ("fig10", [ 5 ]);
      ]
    in
    List.sort_uniq compare
      (List.concat_map
         (fun n -> Option.value ~default:[] (List.assoc_opt n needs))
         names)
  in
  let prefetch_for names =
    match sweep_latencies names with
    | [] -> []
    | latencies ->
        [ run_timed "sweeps" (fun () -> Experiments.prefetch ~jobs ~latencies ()) ]
  in
  match args with
  | [] when attrib_only -> finish []
  | [] ->
      Fmt.pr
        "Reproducing: Chu & Mahlke, Compiler-directed Data Partitioning for \
         Multicluster Processors (CGO 2006)@.";
      let sweeps = prefetch_for (List.map fst experiments) in
      finish
        (sweeps
        @ List.map
            (fun (name, f) ->
              Fmt.pr "@.===================== %s =====================@." name;
              run_timed name f)
            experiments)
  | [ "list" ] -> List.iter (fun (n, _) -> Fmt.pr "%s@." n) experiments
  | names ->
      let sweeps = prefetch_for names in
      finish
        (sweeps
        @ List.map
            (fun n ->
              match List.assoc_opt n experiments with
              | Some f -> run_timed n f
              | None ->
                  Fmt.epr "unknown experiment %s (try: list)@." n;
                  exit 1)
            names)
