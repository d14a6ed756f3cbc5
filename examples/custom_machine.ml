(* Building custom machine descriptions: a heterogeneous 2-cluster
   machine (a wide cluster 0 and a narrow cluster 1) and a 4-cluster
   machine, and how the data partition responds to them.

   Run with: dune exec examples/custom_machine.exe *)

module M = Vliw_machine
module Methods = Partition.Methods

let heterogeneous =
  M.v ~name:"hetero-3i2m+1i1m"
    ~clusters:
      [|
        M.cluster ~ints:3 ~floats:1 ~mems:2 ~branches:1 ~memory_bytes:65536 ();
        M.cluster ~ints:1 ~floats:1 ~mems:1 ~branches:1 ~memory_bytes:16384 ();
      |]
    ~network:{ M.topology = Bus; move_latency = 5; moves_per_cycle = 1 }
    ~latencies:M.itanium_latencies

let evaluate_on machine bench_name =
  let bench = Benchsuite.Suite.find bench_name in
  let prepared = Gdp_core.Pipeline.prepare bench in
  let ctx = Gdp_core.Pipeline.context ~machine prepared in
  (* on a ready context, run a method and price its outcome: the two
     layers [Pipeline.run] calls *)
  let run m =
    let outcome = Methods.run m ctx in
    (outcome, Methods.evaluate ctx outcome)
  in
  (ctx, run Methods.Gdp, run Methods.Unified)

let show machine bench_name =
  Fmt.pr "@.%a@." M.pp machine;
  let ctx, gdp, unified = evaluate_on machine bench_name in
  ignore ctx;
  let cycles (_, report) = report.Vliw_sched.Perf.total_cycles in
  Fmt.pr "%s: GDP %d cycles vs unified %d (%.3f relative)@." bench_name
    (cycles gdp) (cycles unified)
    (float (cycles unified) /. float (cycles gdp));
  (* bytes per cluster under GDP *)
  let n = M.num_clusters machine in
  let bytes = Array.make n 0 in
  List.iter
    (fun (obj, c) ->
      bytes.(c) <-
        bytes.(c)
        + Vliw_ir.Data.size_of_obj ctx.Methods.objtab obj)
    (fst gdp).Methods.obj_home;
  Array.iteri (fun c b -> Fmt.pr "  cluster %d holds %d bytes of data@." c b) bytes

let () =
  (* the paper's homogeneous machine as the reference point *)
  show (M.paper_machine ~move_latency:5 ()) "sobel";
  (* a heterogeneous machine: more compute and memory ports on cluster 0 *)
  show heterogeneous "sobel";
  (* four clusters (recursive bisection in the object partitioner) *)
  show (M.scaled_machine ~clusters:4 ~move_latency:5 ()) "sobel"
