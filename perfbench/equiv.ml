(** Equivalence check: the staged compile that [main.exe] times is the
    compile users run.  For every suite benchmark and every method, on
    the paper machine at [par_domains] 1 and on [mesh16] at
    [par_domains] 2, {!Stages.run} must give the same object homes,
    total cycles and dynamic moves as [Gdp_core.Pipeline.run] with the
    same settings.  As in [main.exe], the staged side shares one [Par]
    pool across all its compiles.  Exit code 1 on any difference.

    Run with [dune build @perfbench/equiv]. *)

module Pipeline = Gdp_core.Pipeline
module Methods = Partition.Methods

let check ~spec ~par_domains =
  let machine_spec =
    match Machine_spec.preset spec with Ok s -> s | Error m -> failwith m
  in
  let machine = Machine_spec.resolve machine_spec in
  let with_pool f =
    if par_domains >= 2 then Par.with_pool ~domains:par_domains (fun p -> f (Some p))
    else f None
  in
  with_pool @@ fun pool ->
  List.fold_left
    (fun failures (bench : Benchsuite.Bench_intf.t) ->
      let prepared = Pipeline.prepare bench in
      List.fold_left
        (fun failures meth ->
          let settings =
            { (Pipeline.Settings.default meth) with machine = machine_spec; par_domains }
          in
          let expected =
            match Pipeline.run ~prepared ~mode:Pipeline.Plain settings with
            | Ok (Pipeline.Evaluated e) ->
                Ok
                  {
                    Stages.homes = Stages.sort_homes e.outcome.Methods.obj_home;
                    cycles = e.report.Vliw_sched.Perf.total_cycles;
                    moves = e.report.Vliw_sched.Perf.dynamic_moves;
                  }
            | Ok (Pipeline.Degraded _) -> Error "Plain mode degraded"
            | Error m -> Error m
          in
          let staged =
            Result.map
              (fun (o : Stages.outcome) -> o.artifact)
              (Stages.compile ~machine ?pool meth bench)
          in
          let same, detail =
            match (expected, staged) with
            | Ok a, Ok b when a = b ->
                (true, Printf.sprintf "%d cycles, %d moves" a.cycles a.moves)
            | Ok a, Ok b ->
                ( false,
                  Printf.sprintf
                    "pipeline %d cycles %d moves, staged %d cycles %d moves, \
                     homes %s"
                    a.cycles a.moves b.cycles b.moves
                    (if a.homes = b.homes then "equal" else "differ") )
            | Error m, _ -> (false, "pipeline failed: " ^ m)
            | _, Error m -> (false, "staged compile failed: " ^ m)
          in
          Printf.printf "%-7s %-10s %-12s %s: %s\n%!" spec bench.name
            (Methods.to_string meth)
            (if same then "ok" else "MISMATCH")
            detail;
          if same then failures else failures + 1)
        failures Methods.all)
    0 Benchsuite.Suite.all

let () =
  let failures =
    check ~spec:"paper" ~par_domains:1 + check ~spec:"mesh16" ~par_domains:2
  in
  Printf.printf "%d mismatches\n" failures;
  exit (if failures = 0 then 0 else 1)
