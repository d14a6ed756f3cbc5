(* Benchmark harness regenerating every table and figure of the paper.

   Usage:
     dune exec bench/main.exe                -- run everything
     dune exec bench/main.exe -- fig2        -- one experiment
     dune exec bench/main.exe -- list        -- list experiment names
     dune exec bench/main.exe -- bechamel    -- bechamel timing of the
                                                partitioning passes

   Flags (before experiment names):
     --timings       print a per-experiment wall-time table at the end
     --trace FILE    record telemetry and write a Chrome trace
     --json FILE     dump per-experiment wall times and bechamel ns/run
                     estimates as machine-readable JSON
     --report DIR    write per-benchmark attribution reports (MD/CSV/JSON)
     --baseline FILE write the attribution baseline JSON (gdp-attrib/1)
     --check FILE    regression gate: diff the current run against a
                     committed baseline, exit non-zero on regressions
     --tolerance PCT allowed relative growth for --check (default 2%)
     -j, --jobs N    fan the standard sweep and the --check gate over N
                     worker processes (default 1 = sequential; results
                     are identical, the pool only changes wall clock —
                     with -j the sweep cost lands in the prefetch, so
                     per-figure wall times in --timings/--json shrink to
                     render time)
     --check-partitioner FILE
                     regression gate on the bechamel ns/run rows of a
                     committed gdp-bench/1 snapshot (runs bechamel
                     first if it did not run this invocation)

   When only report/baseline/check/check-partitioner flags are given,
   the figure sweep is skipped — the gates run on their own.

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

(* ------------------------------------------------------------------ *)
(* Bechamel micro-timing of the partitioning passes (Section 4.5's
   claim is about compile time, so we measure the compiler, not the
   simulated program).  Besides the full methods, the multilevel graph
   partitioner is timed in isolation on the GDP program graphs of three
   benchmarks, so partitioner speedups are visible independently of
   RHOP and scheduling.                                                *)

let bechamel_benches = [ "rawcaudio"; "fir"; "mpeg2enc" ]

(** Run the bechamel suite; returns [(test name, ns/run estimate)] rows,
    sorted by name ([None] when OLS produced no estimate). *)
let bechamel_results () : (string * float option) list =
  let open Bechamel in
  let machine =
    Machine_spec.resolve (Machine_spec.of_legacy ~clusters:2 ~move_latency:5)
  in
  let prepared =
    List.map
      (fun name -> (name, Pipeline.prepare (Benchsuite.Suite.find name)))
      bechamel_benches
  in
  let tests =
    List.concat_map
      (fun (name, p) ->
        let ctx = Pipeline.context ~machine p in
        let method_tests =
          List.map
            (fun m ->
              Test.make
                ~name:(Fmt.str "%s/%s" name (Partition.Methods.to_string m))
                (Staged.stage (fun () -> ignore (Partition.Methods.run m ctx))))
            Partition.Methods.all
        in
        (* the METIS stand-in alone, on the real program graph *)
        let prob =
          Partition.Gdp.build_problem ~machine
            ~prog:ctx.Partition.Methods.prog ~merge:ctx.Partition.Methods.merge
            ~dfg:ctx.Partition.Methods.dfg
            ~profile:ctx.Partition.Methods.profile ()
        in
        let graph = prob.Partition.Gdp.graph
        and pcfg = prob.Partition.Gdp.pconfig in
        let partitioner_tests =
          [
            Test.make
              ~name:(Fmt.str "%s/partitioner-bisect" name)
              (Staged.stage (fun () ->
                   ignore (Graphpart.Partitioner.bisect ~config:pcfg graph)));
            Test.make
              ~name:(Fmt.str "%s/partitioner-kway4" name)
              (Staged.stage (fun () ->
                   ignore
                     (Graphpart.Partitioner.kway ~config:pcfg graph ~nparts:4)));
          ]
        in
        method_tests @ partitioner_tests)
      prepared
  in
  let test = Test.make_grouped ~name:"partitioning" ~fmt:"%s %s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Bechamel.Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances test in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  Hashtbl.fold
    (fun _measure tbl acc ->
      Hashtbl.fold
        (fun name ols_result acc ->
          let est =
            match Bechamel.Analyze.OLS.estimates ols_result with
            | Some (est :: _) -> Some est
            | Some [] | None -> None
          in
          (name, est) :: acc)
        tbl acc)
    merged []
  |> List.sort compare

let render_bechamel rows =
  Fmt.pr "@.measure: monotonic-clock (ns/run)@.";
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Fmt.pr "  %-44s %12.0f ns/run@." name est
      | None -> Fmt.pr "  %-44s (no estimate)@." name)
    rows

(* ------------------------------------------------------------------ *)
(* Machine-readable dump (--json FILE): per-experiment wall times plus
   bechamel ns/run estimates.  BENCH_partitioner.json at the repo root
   is a committed snapshot of this output tracking the perf trajectory. *)

let write_json path ~(timings : (string * float) list)
    ~(bechamel : (string * float option) list) =
  (* round to microseconds and whole nanoseconds: finer digits are noise *)
  let seconds s = Minijson.float (Float.round (s *. 1e6) /. 1e6) in
  let ns = Minijson.option (fun e -> Minijson.float (Float.round e)) in
  Minijson.write_rows path
    (Minijson.obj
       [
         ("schema", Minijson.str "gdp-bench/1");
         ( "experiments",
           Minijson.list
             (List.map
                (fun (name, secs) ->
                  Minijson.obj
                    [ ("name", Minijson.str name); ("seconds", seconds secs) ])
                timings) );
         ( "bechamel",
           Minijson.list
             (List.map
                (fun (name, est) ->
                  Minijson.obj
                    [ ("name", Minijson.str name); ("ns_per_run", ns est) ])
                bechamel) );
       ]);
  Fmt.pr "wrote %s@." path

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

let explanations ~move_latency =
  List.filter_map
    (fun (b : Benchsuite.Bench_intf.t) ->
      try Some (Gdp_report.Explain.explain_bench ~move_latency b)
      with exn ->
        Fmt.epr "warning: explain %s failed: %s@." b.Benchsuite.Bench_intf.name
          (Printexc.to_string exn);
        None)
    (Experiments.default_benches ())

(* The regression gate only needs the comparable rows, so with -j it
   fans one attribution job per benchmark over the process pool: each
   worker returns its benchmark's "gdp-attrib/1" document, which
   [Regress.of_json] reads back — same parser as the committed baseline
   file, so parallel gate rows are the sequential rows. *)
let gate_worker (payload : Minijson.t) : Minijson.t =
  match
    ( Option.bind (Minijson.member "bench" payload) Minijson.to_string,
      Option.bind (Minijson.member "move_latency" payload) Minijson.to_int )
  with
  | Some name, Some move_latency -> (
      let b = Benchsuite.Suite.find name in
      Gdp_report.Explain.to_json
        [ Gdp_report.Explain.explain_bench ~move_latency b ])
  | _ -> failwith "malformed gate job payload"

let gate_rows ~jobs ~move_latency : Gdp_report.Regress.row list =
  if jobs <= 1 then
    Gdp_report.Regress.rows_of (explanations ~move_latency)
  else begin
    let benches = Experiments.default_benches () in
    let job_of (b : Benchsuite.Bench_intf.t) =
      let name = b.Benchsuite.Bench_intf.name in
      Exec.job ~batch:name
        (Minijson.obj
           [
             ("bench", Minijson.str name);
             ("move_latency", Minijson.int move_latency);
           ])
    in
    let results = Exec.map ~jobs ~worker:gate_worker (List.map job_of benches) in
    List.concat
      (List.mapi
         (fun i (b : Benchsuite.Bench_intf.t) ->
           let name = b.Benchsuite.Bench_intf.name in
           match results.(i) with
           | Ok doc -> (
               match Gdp_report.Regress.of_json ~where:name doc with
               | Ok base -> base.Gdp_report.Regress.b_rows
               | Error m ->
                   Fmt.epr "warning: explain %s failed: %s@." name m;
                   [])
           | Error m ->
               Fmt.epr "warning: explain %s failed: %s@." name m;
               [])
         benches)
  end

(* Bechamel ns/run rows are wall-clock micro-benchmarks; the gate's job
   is catching order-of-magnitude collapses (a parallel path silently
   serializing, an accidental quadratic), not 2% jitter.  Hence a very
   generous fixed tolerance. *)
let partitioner_tolerance = 400.0

(** Returns [false] when the partitioner gate failed. *)
let run_check_partitioner ~(rows : (string * float option) list) path : bool =
  match Gdp_report.Regress.load_partitioner path with
  | Error m ->
      Fmt.epr "check-partitioner: cannot load baseline: %s@." m;
      false
  | Ok base ->
      let issues =
        Gdp_report.Regress.check_partitioner ~tolerance:partitioner_tolerance
          ~baseline:base rows
      in
      if issues = [] then begin
        Fmt.pr "check-partitioner: OK — %d baseline row(s) within %.0f%%@."
          (List.length base.Gdp_report.Regress.pb_rows)
          partitioner_tolerance;
        true
      end
      else begin
        List.iter
          (fun i ->
            Fmt.epr "check-partitioner: REGRESSION: %a@."
              Gdp_report.Regress.pp_issue i)
          issues;
        Fmt.epr "check-partitioner: %d regression(s) beyond %.0f%%@."
          (List.length issues) partitioner_tolerance;
        false
      end

(** Returns [false] when the regression gate failed. *)
let run_attrib ~jobs ~report ~baseline ~check ~tolerance : bool =
  (match report with
  | Some dir ->
      let files =
        Gdp_report.Explain.write_reports ~dir
          (explanations ~move_latency:attrib_latency)
      in
      List.iter (fun f -> Fmt.pr "wrote %s@." f) files
  | None -> ());
  (match baseline with
  | Some path ->
      Minijson.write_rows path
        (Gdp_report.Explain.to_json (explanations ~move_latency:attrib_latency));
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
            gate_rows ~jobs ~move_latency:base.Gdp_report.Regress.b_latency
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

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let jobs = ref 1 in
  let check_part = ref None in
  let rec parse_flags timings trace json report baseline check tolerance =
    function
    | "--timings" :: rest ->
        parse_flags true trace json report baseline check tolerance rest
    | "--trace" :: file :: rest ->
        parse_flags timings (Some file) json report baseline check tolerance
          rest
    | [ "--trace" ] ->
        Fmt.epr "--trace needs a file argument@.";
        exit 1
    | "--json" :: file :: rest ->
        parse_flags timings trace (Some file) report baseline check tolerance
          rest
    | [ "--json" ] ->
        Fmt.epr "--json needs a file argument@.";
        exit 1
    | "--report" :: dir :: rest ->
        parse_flags timings trace json (Some dir) baseline check tolerance rest
    | [ "--report" ] ->
        Fmt.epr "--report needs a directory argument@.";
        exit 1
    | "--baseline" :: file :: rest ->
        parse_flags timings trace json report (Some file) check tolerance rest
    | [ "--baseline" ] ->
        Fmt.epr "--baseline needs a file argument@.";
        exit 1
    | "--check" :: file :: rest ->
        parse_flags timings trace json report baseline (Some file) tolerance
          rest
    | [ "--check" ] ->
        Fmt.epr "--check needs a file argument@.";
        exit 1
    | "--check-partitioner" :: file :: rest ->
        check_part := Some file;
        parse_flags timings trace json report baseline check tolerance rest
    | [ "--check-partitioner" ] ->
        Fmt.epr "--check-partitioner needs a file argument@.";
        exit 1
    | "--tolerance" :: pct :: rest -> (
        match float_of_string_opt pct with
        | Some t when t >= 0. ->
            parse_flags timings trace json report baseline check t rest
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
            parse_flags timings trace json report baseline check tolerance rest
        | _ ->
            Fmt.epr "-j needs a positive worker count@.";
            exit 1)
    | [ ("-j" | "--jobs") ] ->
        Fmt.epr "-j needs a worker count argument@.";
        exit 1
    | rest -> (timings, trace, json, report, baseline, check, tolerance, rest)
  in
  let timings, trace, json, report, baseline, check, tolerance, args =
    parse_flags false None None None None None 2.0 args
  in
  let jobs = !jobs in
  sweep_jobs := jobs;
  let check_part = !check_part in
  let attrib_only =
    args = []
    && (report <> None || baseline <> None || check <> None
       || check_part <> None)
  in
  if timings || trace <> None || json <> None then Telemetry.enable ();
  (* bechamel rows collected if the pseudo-experiment ran this invocation *)
  let bech = ref [] in
  let run_bechamel () =
    let rows = bechamel_results () in
    bech := rows;
    render_bechamel rows
  in
  let finish rows =
    if timings then render_timings rows;
    (match trace with
    | Some path ->
        Telemetry.Sink.write_chrome_trace path (Telemetry.snapshot ())
    | None -> ());
    (match json with
    | Some path -> write_json path ~timings:rows ~bechamel:!bech
    | None -> ());
    let attrib_ok = run_attrib ~jobs ~report ~baseline ~check ~tolerance in
    let part_ok =
      match check_part with
      | None -> true
      | Some path ->
          if !bech = [] then run_bechamel ();
          run_check_partitioner ~rows:!bech path
    in
    if not (part_ok && attrib_ok) then exit 1
  in
  (* which standard-sweep latencies the named experiments will need; with
     -j the whole set is prefetched through the process pool up front,
     and the figures then render from cache hits *)
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
    if jobs > 1 then
      match sweep_latencies names with
      | [] -> ()
      | latencies -> Experiments.prefetch ~jobs ~latencies ()
  in
  match args with
  | [] when attrib_only -> finish []
  | [] ->
      Fmt.pr
        "Reproducing: Chu & Mahlke, Compiler-directed Data Partitioning for \
         Multicluster Processors (CGO 2006)@.";
      prefetch_for (List.map fst experiments);
      finish
        (List.map
           (fun (name, f) ->
             Fmt.pr "@.===================== %s =====================@." name;
             run_timed name f)
           experiments)
  | [ "list" ] ->
      List.iter (fun (n, _) -> Fmt.pr "%s@." n) experiments;
      Fmt.pr "bechamel@."
  | names ->
      prefetch_for names;
      finish
        (List.map
           (fun n ->
             match
               if n = "bechamel" then Some run_bechamel
               else List.assoc_opt n experiments
             with
             | Some f -> run_timed n f
             | None ->
                 Fmt.epr "unknown experiment %s (try: list)@." n;
                 exit 1)
           names)
