(* Quickstart: compile a small kernel, partition data and computation
   with GDP, and compare against the unified-memory upper bound.

   Run with: dune exec examples/quickstart.exe *)

let source =
  {|
int coeffs[16] = {1, -2, 3, -4, 5, -6, 7, -8, 8, -7, 6, -5, 4, -3, 2, -1};
int gain;

void main() {
  int *samples = malloc(64);
  int *filtered = malloc(64);

  gain = 3;
  for (int i = 0; i < 64; i = i + 1) { samples[i] = in(i % 16) * 7; }

  for (int i = 0; i < 64; i = i + 1) {
    int acc = 0;
    for (int t = 0; t < 16; t = t + 1) {
      acc = acc + coeffs[t] * samples[(i + t) % 64];
    }
    filtered[i] = acc * gain;
  }

  for (int i = 0; i < 64; i = i + 8) { out(filtered[i]); }
}
|}

let () =
  (* 1. wrap the source as a benchmark: a program plus its workload *)
  let bench =
    {
      Benchsuite.Bench_intf.name = "quickstart";
      description = "small FIR-style kernel";
      source;
      input = Array.init 16 (fun i -> i - 8);
      exhaustive_ok = true;
    }
  in

  (* 2. compile (with unrolling, scalar promotion, if-conversion) and
        profile on the reference interpreter *)
  let prepared = Gdp_core.Pipeline.prepare bench in
  Fmt.pr "compiled: %d operations, reference run took %d interpreter steps@."
    (Vliw_ir.Prog.num_ops prepared.Gdp_core.Pipeline.prog)
    prepared.Gdp_core.Pipeline.reference.Vliw_interp.Interp.steps;

  (* 3. build the partitioning context for the paper's 2-cluster machine
        with 5-cycle intercluster moves *)
  let machine = Vliw_machine.paper_machine ~move_latency:5 () in
  let ctx = Gdp_core.Pipeline.context ~machine prepared in
  Fmt.pr "@.data objects:@.%a@." Vliw_ir.Data.pp_table
    ctx.Partition.Methods.objtab;

  (* 4. run GDP and the unified-memory upper bound through the one
        entry point, [Pipeline.run]; the context's machine wins over
        the settings' default one.  [Checked {verify = true}] verifies
        every run end to end: the clustered program and the
        cycle-level simulation must reproduce the reference outputs *)
  let failures =
    List.filter
      (fun method_ ->
        match
          Gdp_core.Pipeline.run ~prepared ~ctx
            ~mode:(Gdp_core.Pipeline.Checked { verify = true })
            (Gdp_core.Pipeline.Settings.default method_)
        with
        | Ok (Gdp_core.Pipeline.Evaluated e) ->
            Fmt.pr "@.=== %s ===@."
              e.Gdp_core.Pipeline.outcome.Partition.Methods.method_name;
            List.iter
              (fun (obj, c) ->
                Fmt.pr "  %a -> cluster %d@." Vliw_ir.Data.pp_obj obj c)
              (List.sort compare
                 e.Gdp_core.Pipeline.outcome.Partition.Methods.obj_home);
            Fmt.pr "  %a@." Vliw_sched.Perf.pp e.Gdp_core.Pipeline.report;
            Fmt.pr "  verified: semantics and cycle model agree@.";
            false
        | Ok (Gdp_core.Pipeline.Degraded _) -> assert false
        | Error m ->
            Fmt.pr "@.=== %s ===@.  VERIFICATION FAILED: %s@."
              (Partition.Methods.to_string method_)
              m;
            true)
      [ Partition.Methods.Gdp; Partition.Methods.Unified ]
  in
  if failures <> [] then exit 1
