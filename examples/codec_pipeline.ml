(* A full walk through the paper's pipeline on the ADPCM encoder
   (rawcaudio), the workload the paper uses for its exhaustive study:

   - inspect the object table and the access-pattern merge groups;
   - compare all four methods across the three intercluster latencies;
   - show the dynamic intercluster move traffic (Figure 10's metric).

   Run with: dune exec examples/codec_pipeline.exe *)

module Methods = Partition.Methods

let () =
  let bench = Benchsuite.Suite.find "rawcaudio" in
  let prepared = Gdp_core.Pipeline.prepare bench in
  Fmt.pr "benchmark: %s — %s@." bench.Benchsuite.Bench_intf.name
    bench.Benchsuite.Bench_intf.description;

  (* the object table and merge groups are machine-independent *)
  let ctx5 =
    Gdp_core.Pipeline.context
      ~machine:(Vliw_machine.paper_machine ~move_latency:5 ())
      prepared
  in
  Fmt.pr "@.object table:@.%a@." Vliw_ir.Data.pp_table ctx5.Methods.objtab;
  Fmt.pr "access-pattern merge groups (paper Section 3.3.1):@.%a@."
    Partition.Merge.pp ctx5.Methods.merge;

  (* performance across latencies *)
  Fmt.pr "@.cycles by method and intercluster move latency:@.";
  Fmt.pr "%-14s %10s %10s %10s@." "" "lat=1" "lat=5" "lat=10";
  let results =
    List.map
      (fun lat ->
        let machine = Vliw_machine.paper_machine ~move_latency:lat () in
        let ctx = Gdp_core.Pipeline.context ~machine prepared in
        (* run each method on the context and price its outcome *)
        ( lat,
          List.map
            (fun m ->
              let outcome = Methods.run m ctx in
              (m, (outcome, Methods.evaluate ctx outcome)))
            Methods.all ))
      [ 1; 5; 10 ]
  in
  List.iter
    (fun m ->
      let cells =
        List.map
          (fun (_, per_method) ->
            (snd (List.assoc m per_method)).Vliw_sched.Perf.total_cycles)
          results
      in
      Fmt.pr "%-14s %10d %10d %10d@." (Methods.to_string m) (List.nth cells 0)
        (List.nth cells 1) (List.nth cells 2))
    Methods.all;

  (* relative view + move traffic at the default latency *)
  Fmt.pr "@.at 5-cycle latency (relative to unified, higher is better):@.";
  let _, at5 = List.nth results 1 in
  let unified =
    (snd (List.assoc Methods.Unified at5)).Vliw_sched.Perf.total_cycles
  in
  List.iter
    (fun (m, (_, r)) ->
      Fmt.pr "  %-12s %.3f   (%d dynamic intercluster moves)@."
        (Methods.to_string m)
        (float unified /. float r.Vliw_sched.Perf.total_cycles)
        r.Vliw_sched.Perf.dynamic_moves)
    at5;

  (* where did GDP put the data? *)
  let gdp, _ = List.assoc Methods.Gdp at5 in
  Fmt.pr "@.GDP object placement:@.";
  List.iter
    (fun (obj, c) -> Fmt.pr "  %a -> cluster %d@." Vliw_ir.Data.pp_obj obj c)
    (List.sort compare gdp.Methods.obj_home)
