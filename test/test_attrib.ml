(** Cycle-attribution tests: the accounting identity on random MiniC
    programs and on the paper suite, the per-object access split against
    the profiler's ground truth, the explained paper rows against the
    pinned compiles, and the speed gate. *)

module Attrib = Vliw_sched.Attrib
module Sim = Vliw_sched.Vliw_sim
module Perf = Vliw_sched.Perf
module Methods = Partition.Methods
module Pipeline = Gdp_core.Pipeline
module Profile = Vliw_interp.Profile
module Explain = Gdp_report.Explain
module Regress = Gdp_report.Regress

let bench_of_source ~name source input : Benchsuite.Bench_intf.t =
  { name; description = ""; source; input; exhaustive_ok = false }

let sum = Array.fold_left ( + ) 0

(* ------------------------------------------------------------------ *)
(* The identity on random programs (QCheck over lib/fuzz's generator)  *)

(* For every method and latency: the attribution's categories sum
   exactly to the cycle model's count and to the simulator's, its moves
   equal the simulator's, and each object's local + remote accesses sum
   to the profiler's count for it. *)
let check_seed seed =
  let source = Gen_minic.gen_program_with_seed seed in
  let bench =
    bench_of_source ~name:(Printf.sprintf "fuzz-%d" seed) source
      Gen_minic.input
  in
  let prepared = Pipeline.prepare bench in
  let profile = prepared.Pipeline.reference.Vliw_interp.Interp.profile in
  let profiled = Profile.object_access_totals profile in
  let check_access what (totals : Attrib.totals) =
    (* every profiled object appears with a matching local/remote split,
       and the split never invents objects the profiler did not see *)
    List.iter
      (fun (obj, n) ->
        match List.assoc_opt obj totals.Attrib.t_obj_access with
        | None ->
            if n > 0 then
              QCheck.Test.fail_reportf "%s: %s missing from access table"
                what (Vliw_ir.Data.obj_to_string obj)
        | Some a ->
            let got = a.Attrib.acc_local + a.Attrib.acc_remote in
            if got <> n then
              QCheck.Test.fail_reportf "%s: %s local+remote %d <> profiled %d"
                what
                (Vliw_ir.Data.obj_to_string obj)
                got n)
      profiled;
    List.iter
      (fun (obj, _) ->
        if not (List.mem_assoc obj profiled) then
          QCheck.Test.fail_reportf "%s: %s not a profiled object" what
            (Vliw_ir.Data.obj_to_string obj))
      totals.Attrib.t_obj_access
  in
  List.iter
    (fun move_latency ->
      let machine = Vliw_machine.paper_machine ~move_latency () in
      let ctx = Pipeline.context ~machine prepared in
      let objects_of = Methods.objects_of ctx in
      List.iter
        (fun m ->
          let what =
            Printf.sprintf "seed %d, %s, latency %d" seed (Methods.to_string m)
              move_latency
          in
          let e = Helpers.evaluate ctx m in
          let clustered = e.Pipeline.outcome.Methods.clustered in
          let sim =
            Sim.run clustered ~machine ~objects_of ~input:Gen_minic.input ()
          in
          let st =
            Attrib.of_clustered ~machine clustered ~profile ~objects_of ()
          in
          (match Attrib.check_identity st with
          | None -> ()
          | Some msg -> QCheck.Test.fail_reportf "%s: %s" what msg);
          if st.Attrib.t_cycles <> e.Pipeline.report.Perf.total_cycles then
            QCheck.Test.fail_reportf "%s: static cycles %d <> model %d" what
              st.Attrib.t_cycles e.Pipeline.report.Perf.total_cycles;
          (* the simulator counts the block visits it ran: the categories
             must cover exactly those cycles, and the attributed moves
             must be the moves it executed *)
          if sum st.Attrib.t_categories <> sim.Sim.cycles then
            QCheck.Test.fail_reportf "%s: categories sum %d <> sim cycles %d"
              what
              (sum st.Attrib.t_categories)
              sim.Sim.cycles;
          if st.Attrib.t_moves <> sim.Sim.dynamic_moves then
            QCheck.Test.fail_reportf "%s: attributed moves %d <> sim moves %d"
              what st.Attrib.t_moves sim.Sim.dynamic_moves;
          check_access what st)
        Methods.all)
    [ 1; 5 ];
  true

let prop_identity =
  Helpers.qcheck ~count:12 "attribution identity on random programs"
    check_seed Gen_minic.arbitrary_program

(* ------------------------------------------------------------------ *)
(* The identity across the paper suite (fig7/fig8 configurations)      *)

(* [Explain.explain] raises if any method's attribution breaks the
   identity or disagrees with the cycle model, so walking the suite at
   the figure latencies is the full acceptance check.  At the paper's
   5-cycle latency its rows are the paper preset's compiles, reached
   through [Methods.run], [Methods.evaluate] and [Attrib.of_clustered]
   rather than [Pipeline.run]: each must equal its row of
   [Test_partition.pinned_compiles] (cycles, dynamic moves, attribution
   digest).  GDP's rows hold only under the recorded random stream, as
   the pin does. *)
let test_suite_identity () =
  let paper_rows = ref [] in
  List.iter
    (fun move_latency ->
      List.iter
        (fun (b : Benchsuite.Bench_intf.t) ->
          let e = Explain.explain_bench ~move_latency b in
          Alcotest.(check int)
            (Printf.sprintf "%s l%d: one row per method" b.name move_latency)
            (List.length Methods.all)
            (List.length e.Explain.ex_rows);
          List.iter
            (fun (r : Explain.method_row) ->
              Alcotest.(check int)
                (Printf.sprintf "%s/%s l%d: categories sum to cycles" b.name
                   r.Explain.mr_method move_latency)
                r.Explain.mr_cycles
                (sum r.Explain.mr_totals.Attrib.t_categories);
              if move_latency = 5 then
                paper_rows :=
                  ( (b.name, r.Explain.mr_method),
                    ( r.Explain.mr_cycles,
                      r.Explain.mr_dynamic_moves,
                      Test_partition.digest_attribution r.Explain.mr_totals ) )
                  :: !paper_rows)
            e.Explain.ex_rows)
        Benchsuite.Suite.all)
    [ 1; 5; 10 ];
  let keep =
    if Test_partition.random_stream () = Test_partition.pinned_random_stream
    then fun _ -> true
    else fun m -> m <> Methods.to_string Methods.Gdp
  in
  let pinned =
    List.filter_map
      (fun (b, p, m, c, d, _, _, ad) ->
        if p = "paper" && keep m then Some ((b, m), (c, d, ad)) else None)
      Test_partition.pinned_compiles
  in
  Alcotest.(check (list (pair (pair string string) (triple int int string))))
    "cycles, dynamic moves and attribution digest per (benchmark, method) \
     at latency 5, against the pinned paper compiles"
    pinned
    (List.filter (fun ((_, m), _) -> keep m) (List.rev !paper_rows))

(* The explainer's placement tables are non-empty for real benchmarks:
   every method row attributes at least one object access. *)
let test_placements_non_empty () =
  let e = Explain.explain_bench ~move_latency:5 (Benchsuite.Suite.find "fir") in
  Alcotest.(check bool) "profiled accesses exist" true
    (e.Explain.ex_access_totals <> []);
  List.iter
    (fun (r : Explain.method_row) ->
      Alcotest.(check bool)
        (r.Explain.mr_method ^ ": access table non-empty")
        true
        (r.Explain.mr_totals.Attrib.t_obj_access <> []))
    e.Explain.ex_rows

(* The JSON reader the speed gate parses perfbench's results with. *)
let test_minijson_rejects_garbage () =
  List.iter
    (fun s ->
      match Minijson.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "nul"; "\"unterminated"; "1 2" ];
  match Minijson.parse "{\"a\": [1, 2.5, \"x\\n\"], \"b\": null}" with
  | Error m -> Alcotest.fail m
  | Ok doc ->
      let open Minijson in
      Alcotest.(check (option int)) "nested int" (Some 1)
        (Option.bind (member "a" doc) (fun l ->
             Option.bind (to_list l) (fun l ->
                 Option.bind (List.nth_opt l 0) to_int)))

(* ------------------------------------------------------------------ *)
(* Speed gate, on synthetic perfbench documents                        *)

let speed_baseline () =
  match Regress.load_runs (Helpers.repo_file "BENCH_speed.txt") with
  | Ok runs -> runs
  | Error m -> Alcotest.fail m

let benchmark_json () =
  match Minijson.parse_file (Helpers.repo_file "BENCHMARK.json") with
  | Ok doc -> doc
  | Error m -> Alcotest.fail m

(* What perfbench prints for [runs], less the informational lines the
   gate skips: each run's workload line, then its result line. *)
let perfbench_document (runs : Regress.perf_run list) =
  let open Minijson in
  String.concat ""
    (List.map
       (fun (r : Regress.perf_run) ->
         let metric (name, v) =
           (name, obj [ ("value", float v); ("unit", str "") ])
         in
         Printf.sprintf "workload: %s  seed: %d  trace: %d\n%s\n"
           r.Regress.pr_workload r.Regress.pr_seed
           (if r.Regress.pr_traced then 1 else 0)
           (encode
              (obj
                 [
                   ("correct", bool r.Regress.pr_correct);
                   ("attempted", int 1);
                   ("failed", int r.Regress.pr_failed);
                   ("metrics", obj (List.map metric r.Regress.pr_metrics));
                 ])))
       runs)

let speed_issues ~baseline runs =
  match Regress.runs_of_string (perfbench_document runs) with
  | Error m -> Alcotest.fail m
  | Ok current ->
      Regress.check_speed ~benchmark:(benchmark_json ()) ~baseline current

let test_speed_gate_passes_on_itself () =
  let baseline = speed_baseline () in
  Alcotest.(check (list (pair string bool)))
    "the CI runs, in order"
    [
      ("suite-paper", false);
      ("mesh16-gdp", false);
      ("served-mixed", false);
      ("suite-paper", true);
      ("mesh16-gdp", true);
    ]
    (List.map
       (fun (r : Regress.perf_run) ->
         (r.Regress.pr_workload, r.Regress.pr_traced))
       baseline);
  Alcotest.(check (list string))
    "no issue" []
    (List.map
       (Fmt.str "%a" Regress.pp_speed_issue)
       (speed_issues ~baseline baseline))

let test_speed_gate_faults () =
  let baseline = speed_baseline () in
  let edit workload traced f =
    List.map
      (fun (r : Regress.perf_run) ->
        if r.Regress.pr_workload = workload && r.Regress.pr_traced = traced then
          f r
        else r)
      baseline
  in
  let map_metric name f (r : Regress.perf_run) =
    {
      r with
      Regress.pr_metrics =
        List.map
          (fun (n, v) -> if n = name then (n, f v) else (n, v))
          r.Regress.pr_metrics;
    }
  in
  let one what (workload, traced, metric) runs =
    match speed_issues ~baseline runs with
    | [ i ] ->
        Alcotest.(check (triple string bool string))
          what (workload, traced, metric)
          (i.Regress.s_workload, i.Regress.s_traced, i.Regress.s_metric)
    | issues ->
        Alcotest.failf "%s: %d issues: %a" what (List.length issues)
          Fmt.(list ~sep:semi Regress.pp_speed_issue)
          issues
  in
  (* every gated metric, moved past its rule in each run that reports
     it: a count off by one either way, the geomean beyond 1e-9, and
     each timing worse than 2x in its direction *)
  List.iter
    (fun (metric, move) ->
      let runs =
        List.filter
          (fun (r : Regress.perf_run) ->
            List.mem_assoc metric r.Regress.pr_metrics)
          baseline
      in
      if runs = [] then Alcotest.failf "no baseline run reports %s" metric;
      List.iter
        (fun (r : Regress.perf_run) ->
          let w = r.Regress.pr_workload and t = r.Regress.pr_traced in
          one (metric ^ " moved") (w, t, metric)
            (edit w t (map_metric metric move)))
        runs)
    [
      ("dynamic_moves_total", fun v -> v +. 1.);
      ("vliw_opt.ops_out", fun v -> v -. 1.);
      ("vliw_analysis.dfg_edges", fun v -> v +. 1.);
      ("partition.gdp_edgecut", fun v -> v -. 1.);
      ("partition.rhop_calls", fun v -> v +. 1.);
      ("vliw_sched.static_moves", fun v -> v +. 1.);
      ("vliw_sched.total_cycles", fun v -> v -. 1.);
      ("cycles_geomean", fun v -> v *. (1. +. 1e-8));
      ("compiles_per_s", ( *. ) 0.45);
      ("compile_ms_p50", ( *. ) 2.1);
      ("compile_ms_p99", ( *. ) 2.1);
      ("partition.gdp_ms", ( *. ) 2.1);
      ("partition.rhop_ms", ( *. ) 2.1);
    ];
  one "a failed run"
    ("served-mixed", false, "correct")
    (edit "served-mixed" false (fun r ->
         { r with Regress.pr_correct = false }));
  one "a missing metric"
    ("mesh16-gdp", true, "partition.rhop_ms")
    (edit "mesh16-gdp" true (fun r ->
         {
           r with
           Regress.pr_metrics =
             List.remove_assoc "partition.rhop_ms" r.Regress.pr_metrics;
         }));
  one "a missing run"
    ("served-mixed", false, "run")
    (List.filter
       (fun (r : Regress.perf_run) -> r.Regress.pr_workload <> "served-mixed")
       baseline);
  (* every timing nearly 2x worse, and a geomean's last bits, still pass *)
  let slower =
    List.map
      (fun r ->
        r
        |> map_metric "compiles_per_s" (( *. ) 0.55)
        |> map_metric "compile_ms_p50" (( *. ) 1.9)
        |> map_metric "compile_ms_p99" (( *. ) 1.9)
        |> map_metric "partition.gdp_ms" (( *. ) 1.9)
        |> map_metric "partition.rhop_ms" (( *. ) 1.9)
        |> map_metric "cycles_geomean" (( *. ) (1. +. 1e-12)))
      baseline
  in
  Alcotest.(check int) "inside the bounds" 0
    (List.length (speed_issues ~baseline slower))

let suite =
  [
    prop_identity;
    Alcotest.test_case "identity across the suite (fig7/fig8)" `Slow
      test_suite_identity;
    Alcotest.test_case "placement tables are non-empty" `Quick
      test_placements_non_empty;
    Alcotest.test_case "speed gate passes the baseline on itself" `Quick
      test_speed_gate_passes_on_itself;
    Alcotest.test_case "speed gate names each fault once" `Quick
      test_speed_gate_faults;
    Alcotest.test_case "minijson accepts JSON and rejects garbage" `Quick
      test_minijson_rejects_garbage;
  ]
