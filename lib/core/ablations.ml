(** Ablation studies beyond the paper's figures (DESIGN.md Section 5):
    the effect of access-pattern merge policy, of the METIS imbalance
    tolerance, of heterogeneous clusters and of a greedy computation
    partitioner.  Four clusters on the paper's bus are the scenario
    matrix's bus4 row and the kway4 preset. *)

module Methods = Partition.Methods

(* ------------------------------------------------------------------ *)
(* Merge policy: default access-pattern merges vs. also merging
   low-slack dependent operations (the variant the paper rejected).    *)

type merge_ablation_row = {
  ma_bench : string;
  ma_default_cycles : int;
  ma_default_groups : int;
  ma_slack_cycles : int;
  ma_slack_groups : int;
}

(* every ablation builds its machine through [Machine_spec], like the
   experiments sweep — the paper shapes via [of_legacy] resolve
   byte-identically to the old [Vliw_machine.paper_machine] calls *)
let paper_spec ~move_latency = Machine_spec.of_legacy ~clusters:2 ~move_latency

(* Cycles of one method's outcome under the cycle model. *)
let cycles ctx outcome =
  (Methods.evaluate ctx outcome).Vliw_sched.Perf.total_cycles

let merge_ablation ?(benches = Benchsuite.Suite.all) ?(move_latency = 5) () :
    merge_ablation_row list =
  let machine = Machine_spec.resolve (paper_spec ~move_latency) in
  List.map
    (fun b ->
      let p = Pipeline.prepare_default b in
      let run merge_low_slack =
        let ctx = Pipeline.context ~machine ~merge_low_slack p in
        ( cycles ctx (Methods.run Methods.Gdp ctx),
          List.length (Partition.Merge.data_groups ctx.Methods.merge) )
      in
      let dc, dg = run false in
      let sc, sg = run true in
      {
        ma_bench = b.Benchsuite.Bench_intf.name;
        ma_default_cycles = dc;
        ma_default_groups = dg;
        ma_slack_cycles = sc;
        ma_slack_groups = sg;
      })
    benches

let render_merge_ablation ppf rows =
  Fmt.pf ppf
    "@.Ablation: access-pattern merges vs. additional low-slack merging \
     (GDP, 5-cycle latency)@.";
  Report.table ppf
    ~header:
      [ "benchmark"; "groups"; "cycles"; "groups+slack"; "cycles+slack"; "delta" ]
    (List.map
       (fun r ->
         ( r.ma_bench,
           [
             string_of_int r.ma_default_groups;
             string_of_int r.ma_default_cycles;
             string_of_int r.ma_slack_groups;
             string_of_int r.ma_slack_cycles;
             Fmt.str "%+.1f%%"
               (Report.percent ~base:r.ma_default_cycles r.ma_slack_cycles);
           ] ))
       rows)

(* ------------------------------------------------------------------ *)
(* METIS imbalance tolerance sweep (Section 4.3 notes that better
   mappings exist at worse balance).                                   *)

type imbalance_row = {
  ib_bench : string;
  ib_points : (float * int) list;  (** tolerance -> cycles *)
}

let imbalance_sweep ?(benches = Benchsuite.Suite.all) ?(move_latency = 5)
    ?(tolerances = [ 0.05; 0.25; 0.5; 1.0; 2.0 ]) () : imbalance_row list =
  let machine = Machine_spec.resolve (paper_spec ~move_latency) in
  List.map
    (fun b ->
      let p = Pipeline.prepare_default b in
      let ctx = Pipeline.context ~machine p in
      let points =
        List.map
          (fun tol ->
            let gdp_config =
              { Partition.Gdp.default_config with data_imbalance = tol }
            in
            (tol, cycles ctx (Methods.run ~gdp_config Methods.Gdp ctx)))
          tolerances
      in
      { ib_bench = b.Benchsuite.Bench_intf.name; ib_points = points })
    benches

let render_imbalance ppf rows =
  Fmt.pf ppf
    "@.Ablation: GDP data-size imbalance tolerance sweep (cycles, 5-cycle \
     latency)@.";
  match rows with
  | [] -> ()
  | first :: _ ->
      let header =
        "benchmark"
        :: List.map (fun (t, _) -> Fmt.str "tol=%.2f" t) first.ib_points
      in
      Report.table ppf ~header
        (List.map
           (fun r ->
             ( r.ib_bench,
               List.map (fun (_, c) -> string_of_int c) r.ib_points ))
           rows)

(* ------------------------------------------------------------------ *)
(* Heterogeneous clusters: a wide cluster 0 (3 int, 2 memory ports,
   4x the memory) next to a narrow cluster 1.  GDP's balance targets
   follow the asymmetry (paper Section 3.3.2 parameterizes the memory
   balance for this case).                                             *)

let heterogeneous_spec ?(move_latency = 5) () =
  {
    Machine_spec.name = "hetero-3i2m+1i1m";
    clusters =
      [
        {
          Machine_spec.ints = 3;
          floats = 1;
          mems = 2;
          branches = 1;
          memory_bytes = 65536;
        };
        {
          Machine_spec.ints = 1;
          floats = 1;
          mems = 1;
          branches = 1;
          memory_bytes = 16384;
        };
      ];
    topology = Vliw_machine.Bus;
    link_latency = move_latency;
    link_bandwidth = 1;
  }

let heterogeneous_machine ?(move_latency = 5) () =
  Machine_spec.resolve (heterogeneous_spec ~move_latency ())

type hetero_row = {
  ht_bench : string;
  ht_cycles : (string * int) list;
  ht_bytes0 : int;  (** data bytes GDP placed on the wide cluster *)
}

let heterogeneous ?(benches = Benchsuite.Suite.all) ?(move_latency = 5) () :
    hetero_row list =
  let machine = heterogeneous_machine ~move_latency () in
  List.map
    (fun b ->
      let p = Pipeline.prepare_default b in
      let ctx = Pipeline.context ~machine p in
      let outcomes = List.map (fun m -> (m, Methods.run m ctx)) Methods.all in
      let bytes0 =
        List.fold_left
          (fun acc (obj, c) ->
            if c = 0 then
              acc + Vliw_ir.Data.size_of_obj ctx.Methods.objtab obj
            else acc)
          0 (List.assoc Methods.Gdp outcomes).Methods.obj_home
      in
      {
        ht_bench = b.Benchsuite.Bench_intf.name;
        ht_cycles =
          List.map (fun (m, o) -> (Methods.to_string m, cycles ctx o)) outcomes;
        ht_bytes0 = bytes0;
      })
    benches

let render_heterogeneous ppf rows =
  Fmt.pf ppf
    "@.Ablation: heterogeneous machine (wide cluster 0: 3 int, 2 memory \
     ports, 64 KiB; narrow cluster 1: 1 int, 1 memory port, 16 KiB)@.";
  Report.table ppf
    ~header:
      [ "benchmark"; "GDP"; "ProfileMax"; "Naive"; "Unified"; "GDP B on c0" ]
    (List.map
       (fun r ->
         ( r.ht_bench,
           List.map
             (fun n -> string_of_int (List.assoc n r.ht_cycles))
             [ "gdp"; "profile-max"; "naive"; "unified" ]
           @ [ string_of_int r.ht_bytes0 ] ))
       rows)

(* ------------------------------------------------------------------ *)
(* RHOP vs Bottom-Up Greedy computation partitioning.                  *)

type bug_row = {
  bg_bench : string;
  bg_rhop_unified : int;
  bg_bug_unified : int;
  bg_rhop_gdp : int;
  bg_bug_gdp : int;
}

let bug_comparison ?(benches = Benchsuite.Suite.all) ?(move_latency = 5) () :
    bug_row list =
  let machine = Machine_spec.resolve (paper_spec ~move_latency) in
  List.map
    (fun b ->
      let p = Pipeline.prepare_default b in
      let ctx = Pipeline.context ~machine p in
      let evaluate_with partition homes =
        let assign =
          Vliw_sched.Assignment.create
            ~num_clusters:(Vliw_machine.num_clusters machine)
        in
        List.iter
          (fun (obj, c) -> Vliw_sched.Assignment.set_home assign obj c)
          homes;
        let lock_of =
          match homes with
          | [] -> fun _ -> None
          | _ ->
              let home_of_group = Hashtbl.create 32 in
              List.iter
                (fun (obj, c) ->
                  match Partition.Merge.group_of_obj ctx.Methods.merge obj with
                  | Some g -> Hashtbl.replace home_of_group g c
                  | None -> ())
                homes;
              fun op_id ->
                Option.bind
                  (Partition.Merge.group_of_op ctx.Methods.merge op_id)
                  (Hashtbl.find_opt home_of_group)
        in
        partition ~machine ~objects_of:(Methods.objects_of ctx) ~lock_of
          ctx.Methods.prog assign;
        let clustered = Vliw_sched.Move_insert.apply ctx.Methods.prog assign in
        (Vliw_sched.Perf.evaluate ~machine clustered
           ~profile:ctx.Methods.profile
           ~objects_of:(Methods.objects_of ctx) ())
          .Vliw_sched.Perf.total_cycles
      in
      let gdp_homes =
        (Partition.Gdp.partition_objects ~machine ~prog:ctx.Methods.prog
           ~merge:ctx.Methods.merge ~dfg:ctx.Methods.dfg
           ~profile:ctx.Methods.profile ())
          .Partition.Gdp.obj_home
      in
      let rhop = Partition.Rhop.partition ?pool:None in
      {
        bg_bench = b.Benchsuite.Bench_intf.name;
        bg_rhop_unified = evaluate_with rhop [];
        bg_bug_unified = evaluate_with Partition.Bug.partition [];
        bg_rhop_gdp = evaluate_with rhop gdp_homes;
        bg_bug_gdp = evaluate_with Partition.Bug.partition gdp_homes;
      })
    benches

let render_bug ppf rows =
  Fmt.pf ppf
    "@.Ablation: RHOP vs Bottom-Up Greedy computation partitioning (cycles, \
     5-cycle latency)@.";
  Report.table ppf
    ~header:
      [ "benchmark"; "RHOP unif"; "BUG unif"; "RHOP+GDP"; "BUG+GDP"; "BUG cost" ]
    (List.map
       (fun r ->
         ( r.bg_bench,
           [
             string_of_int r.bg_rhop_unified;
             string_of_int r.bg_bug_unified;
             string_of_int r.bg_rhop_gdp;
             string_of_int r.bg_bug_gdp;
             Fmt.str "%+.1f%%"
               (Report.percent ~base:r.bg_rhop_gdp r.bg_bug_gdp);
           ] ))
       rows)
