(** Drivers reproducing every table and figure of the paper's evaluation
    (Section 4).  Each driver returns plain data and can render itself;
    `bench/main.exe` and EXPERIMENTS.md are generated from these. *)

module Methods = Partition.Methods

type row = {
  bench : string;
  cycles : (string * int) list;  (** method name -> total cycles *)
  moves : (string * int) list;  (** method name -> dynamic moves *)
  error : string option;
      (** [Some] when the benchmark failed — [cycles]/[moves] are then
          empty and figures render an explicit gap for it *)
}

let default_benches () = Benchsuite.Suite.all

let cycles_of row name = List.assoc name row.cycles
let moves_of row name = List.assoc name row.moves
let cycles_opt row name = List.assoc_opt name row.cycles
let moves_opt row name = List.assoc_opt name row.moves

(** A row as [gdpc bench --json] writes it. *)
let row_to_json (r : row) : Minijson.t =
  let counts kvs = Minijson.obj (List.map (fun (n, c) -> (n, Minijson.int c)) kvs) in
  Minijson.obj
    [
      ("bench", Minijson.str r.bench);
      ("cycles", counts r.cycles);
      ("moves", counts r.moves);
      ("error", Minijson.option Minijson.str r.error);
    ]

(** One benchmark under all methods; crash-safe: any stage exception
    becomes an error row instead of aborting the whole sweep. *)
let run_bench ~machine (b : Benchsuite.Bench_intf.t) : row =
  let name = b.Benchsuite.Bench_intf.name in
  match
    let p = Pipeline.prepare_default b in
    let ctx = Pipeline.context ~machine p in
    (* through [Pipeline.run], so [gdpc bench] traces keep one
       [evaluate] span per method *)
    List.map
      (fun m ->
        match Pipeline.run ~ctx (Pipeline.Settings.default m) with
        | Ok (Pipeline.Evaluated e) -> (Methods.to_string m, e)
        | Ok (Pipeline.Degraded _) | Error _ -> assert false)
      Methods.all
  with
  | evals ->
      {
        bench = name;
        cycles =
          List.map
            (fun (n, e) -> (n, e.Pipeline.report.Vliw_sched.Perf.total_cycles))
            evals;
        moves =
          List.map
            (fun (n, e) ->
              (n, e.Pipeline.report.Vliw_sched.Perf.dynamic_moves))
            evals;
        error = None;
      }
  | exception exn ->
      let msg =
        match exn with
        | Minic.Compile_error _ -> Fmt.str "%a" Minic.pp_error exn
        | Vliw_interp.Interp.Runtime_error m -> "runtime error: " ^ m
        | Vliw_sched.Vliw_sim.Sim_error m -> "simulation error: " ^ m
        | Vliw_sched.Assignment.Invalid m | Vliw_ir.Validate.Invalid m ->
            "invariant violated: " ^ m
        | Invalid_argument m | Failure m -> m
        | exn -> raise exn (* Out_of_memory, Stack_overflow, ... *)
      in
      Fault.note_detected ();
      Logs.err (fun l -> l "experiments: benchmark %s failed: %s" name msg);
      { bench = name; cycles = []; moves = []; error = Some msg }

(* Several figures share the same sweep; cache by (machine, benchmark
   set).  The machine key is the spec's canonical JSON encoding (pure
   data, deterministic field order), the name list is sorted so callers
   that enumerate the same benchmarks in a different order hit the same
   entry.  Plain single-threaded [Hashtbl] memo, like
   [Pipeline.prepare_default] — parallelism happens in [Exec] worker
   processes, never in-process. *)
let run_all_cache : (string * string list, row list) Hashtbl.t =
  Hashtbl.create 8

let machine_key (spec : Machine_spec.t) =
  Minijson.encode (Machine_spec.to_json spec)

let cache_key ~benches spec =
  ( machine_key spec,
    List.sort compare (List.map (fun b -> b.Benchsuite.Bench_intf.name) benches)
  )

(* ------------------------------------------------------------------ *)
(* The sweep: one [Exec] job per (benchmark, machine) cell, in this
   process when [jobs] is 1.  [run_bench] catches deterministic failures
   where it runs, so their error strings travel in the row. *)

(* One benchmark on one machine, all four methods.  The batch key is
   the benchmark name, so every machine of a benchmark lands on the
   worker that already compiled it ([Pipeline.prepare_default]'s
   memo). *)
let sweep_cell (b, spec) = run_bench ~machine:(Machine_spec.resolve spec) b

(** Fill the sweep memo for several machines at once, fanning the
    (benchmark, machine) cells over [jobs] [Exec] worker processes.
    Subsequent [run_all_machine] calls (and every figure built on them)
    are cache hits with identical rows whatever [jobs] is. *)
let prefetch_machines ?(jobs = 1) ?(benches = default_benches ()) ~specs () :
    unit =
  (* dedup by canonical encoding, preserving first-seen order *)
  let seen = Hashtbl.create 8 in
  let specs =
    List.filter
      (fun spec ->
        let k = machine_key spec in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      specs
  in
  let missing =
    List.filter
      (fun spec -> not (Hashtbl.mem run_all_cache (cache_key ~benches spec)))
      specs
  in
  if missing <> [] then begin
    let cells =
      List.concat_map
        (fun b -> List.map (fun spec -> (b, spec)) missing)
        benches
    in
    let results =
      Telemetry.with_span "experiments.prefetch"
        ~args:[ ("jobs", string_of_int jobs) ]
        (fun () ->
          Exec.map ~jobs ~worker:sweep_cell
            (List.map
               (fun ((b, _) as cell) ->
                 Exec.job ~batch:b.Benchsuite.Bench_intf.name cell)
               cells))
    in
    let nspecs = List.length missing in
    List.iteri
      (fun k spec ->
        let rows =
          List.mapi
            (fun i (b : Benchsuite.Bench_intf.t) ->
              match results.((i * nspecs) + k) with
              | Ok row -> row
              | Error m ->
                  (* a hard worker crash has no row to report; an error
                     row lets the sweep complete and figures render a
                     gap *)
                  { bench = b.Benchsuite.Bench_intf.name; cycles = [];
                    moves = []; error = Some m })
            benches
        in
        Hashtbl.replace run_all_cache (cache_key ~benches spec) rows)
      missing
  end

(** [prefetch_machines] over paper machines — one spec per latency. *)
let prefetch ?jobs ?benches ~latencies () : unit =
  let specs =
    List.map
      (fun move_latency -> Machine_spec.of_legacy ~clusters:2 ~move_latency)
      (List.sort_uniq compare latencies)
  in
  prefetch_machines ?jobs ?benches ~specs ()

(** Run all four methods on every benchmark on one machine.  Results are
    memoized per (machine, benchmark set); the key is insensitive to
    benchmark order.  Rows come back in the order of [benches] on a miss
    — a reordered cache hit returns the first call's row order.  A miss
    is computed by [prefetch_machines] on [jobs] workers (identical
    rows whatever [jobs] is). *)
let run_all_machine ?(jobs = 1) ?(benches = default_benches ()) ~spec () :
    row list =
  let key = cache_key ~benches spec in
  if not (Hashtbl.mem run_all_cache key) then
    prefetch_machines ~jobs ~benches ~specs:[ spec ] ();
  Hashtbl.find run_all_cache key

(** [run_all_machine] on the paper machine at one intercluster latency —
    the sweep behind the paper's own figure family. *)
let run_all ?jobs ?benches ~move_latency () : row list =
  run_all_machine ?jobs ?benches
    ~spec:(Machine_spec.of_legacy ~clusters:2 ~move_latency)
    ()

(** Drop the sweep memo (its companion is [Pipeline.clear_caches]). *)
let clear_cache () = Hashtbl.reset run_all_cache

(* ------------------------------------------------------------------ *)
(* Figure 2: cycle increase of the Naive method vs unified memory.     *)

type figure2_result = {
  f2_benches : string list;
  f2_increase : (int * (string * float) list) list;
      (** latency -> per-bench % increase *)
}

let figure2 ?benches () : figure2_result =
  let latencies = [ 1; 5; 10 ] in
  let f2_benches = ref [] in
  let per_lat =
    List.map
      (fun lat ->
        let rows = run_all ?benches ~move_latency:lat () in
        if !f2_benches = [] then f2_benches := List.map (fun r -> r.bench) rows;
        ( lat,
          List.filter_map
            (fun r ->
              match (cycles_opt r "unified", cycles_opt r "naive") with
              | Some base, Some naive ->
                  Some (r.bench, Report.percent ~base naive)
              | _ -> None (* failed benchmark: explicit gap *))
            rows ))
      latencies
  in
  { f2_benches = !f2_benches; f2_increase = per_lat }

let render_figure2 ppf (r : figure2_result) =
  Fmt.pf ppf
    "@.Figure 2: %% increase in cycles when data is naively partitioned \
     across clusters@.";
  let header =
    "benchmark" :: List.map (fun (l, _) -> Fmt.str "lat=%d" l) r.f2_increase
  in
  let rows =
    List.map
      (fun b ->
        ( b,
          List.map
            (fun (_, per_bench) ->
              match List.assoc_opt b per_bench with
              | Some v -> Fmt.str "%.1f%%" v
              | None -> "n/a")
            r.f2_increase ))
      r.f2_benches
  in
  let avg per_bench =
    if per_bench = [] then 0.
    else
      List.fold_left (fun a (_, v) -> a +. v) 0. per_bench
      /. float (List.length per_bench)
  in
  let rows =
    rows
    @ [
        ( "AVERAGE",
          List.map (fun (_, pb) -> Fmt.str "%.1f%%" (avg pb)) r.f2_increase );
      ]
  in
  Report.table ppf ~header rows

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8: GDP and Profile Max relative to unified memory.    *)

type perf_result = {
  latency : int;
  rows : row list;
}

let performance ?benches ~move_latency () : perf_result =
  { latency = move_latency; rows = run_all ?benches ~move_latency () }

let relative r method_name =
  Report.ratio ~base:(cycles_of r "unified") (cycles_of r method_name)

let relative_opt r method_name =
  match (cycles_opt r "unified", cycles_opt r method_name) with
  | Some base, Some c -> Some (Report.ratio ~base c)
  | _ -> None

let render_performance ppf (p : perf_result) ~figure_name =
  Fmt.pf ppf
    "@.%s: performance relative to unified memory (1.0 = unified), %d-cycle \
     intercluster moves@."
    figure_name p.latency;
  let cell r name =
    match relative_opt r name with
    | Some v -> Fmt.str "%.3f" v
    | None -> "n/a"
  in
  let header = [ "benchmark"; "GDP"; "ProfileMax"; "Naive" ] in
  let rows =
    List.map
      (fun r ->
        (r.bench, [ cell r "gdp"; cell r "profile-max"; cell r "naive" ]))
      p.rows
  in
  (* averages skip failed benchmarks (the gap is already visible) *)
  let avg name =
    let vs = List.filter_map (fun r -> relative_opt r name) p.rows in
    if vs = [] then "n/a"
    else
      Fmt.str "%.3f" (List.fold_left ( +. ) 0. vs /. float (List.length vs))
  in
  let rows =
    rows @ [ ("AVERAGE", [ avg "gdp"; avg "profile-max"; avg "naive" ]) ]
  in
  Report.table ppf ~header rows;
  Report.bar_chart ppf
    ~title:(figure_name ^ " (bars: GDP relative performance)")
    ~unit:""
    (List.filter_map
       (fun r -> Option.map (fun v -> (r.bench, v)) (relative_opt r "gdp"))
       p.rows)

(* ------------------------------------------------------------------ *)
(* Figure 10: increase in dynamic intercluster moves at 5-cycle latency *)

let render_figure10 ppf (p : perf_result) =
  Fmt.pf ppf
    "@.Figure 10: %% increase in dynamic intercluster moves over unified \
     memory (%d-cycle latency)@."
    p.latency;
  let header = [ "benchmark"; "unified moves"; "GDP"; "ProfileMax" ] in
  let pct r name =
    match (moves_opt r "unified", moves_opt r name) with
    | Some 0, Some m -> Fmt.str "+%d" m
    | Some u, Some m -> Fmt.str "%.1f%%" (Report.percent ~base:u m)
    | _ -> "n/a"
  in
  let unified_cell r =
    match moves_opt r "unified" with
    | Some u -> string_of_int u
    | None -> "n/a"
  in
  let rows =
    List.map
      (fun r ->
        (r.bench, [ unified_cell r; pct r "gdp"; pct r "profile-max" ]))
      p.rows
  in
  Report.table ppf ~header rows

(* ------------------------------------------------------------------ *)
(* Table 1: the method taxonomy.                                       *)

let render_table1 ppf () =
  Fmt.pf ppf "@.Table 1: object and computation partitioning methods@.";
  Report.table ppf
    ~header:[ "Algorithm"; "Object partitioner"; "Object assignment"; "Computation" ]
    [
      ("GDP", [ "Global Data Partitioning"; "graph partition"; "RHOP" ]);
      ( "Profile Max",
        [ "RHOP (unified pass)"; "greedy by dynamic frequency"; "RHOP" ] );
      ("Naive", [ "none (post-pass)"; "max-frequency, no balance"; "RHOP" ]);
      ("Unified", [ "n/a (shared memory)"; "n/a"; "RHOP" ]);
    ]

(* ------------------------------------------------------------------ *)
(* Section 4.5: compile time.                                          *)

(** Pipeline stages whose per-method cost the Section-4.5 table breaks
    out (the telemetry span names recorded by the partitioners). *)
let ct_stage_names = [ "graph-partition"; "rhop"; "move-insert" ]

type compile_time_result = {
  ct_rows : (string * (string * float) list) list;
      (** bench -> method -> seconds *)
  ct_stages : (string * (string * float) list) list;
      (** bench -> stage -> seconds, for the GDP method *)
}

(** Times come from telemetry spans — the same clock as every trace and
    [--stats] report — captured on a private recording so an enclosing
    recording (e.g. [gdpc --trace]) is unaffected. *)
let compile_time ?(benches = default_benches ()) ?(move_latency = 5) () :
    compile_time_result =
  let machine =
    Machine_spec.resolve (Machine_spec.of_legacy ~clusters:2 ~move_latency)
  in
  let rows =
    List.map
      (fun b ->
        let p = Pipeline.prepare_default b in
        let ctx = Pipeline.context ~machine p in
        let time m =
          let (_ : Methods.outcome), snap =
            Telemetry.capture (fun () ->
                Telemetry.with_span "partition" (fun () -> Methods.run m ctx))
          in
          let total = Telemetry.Snapshot.total_seconds snap "partition" in
          let stages =
            List.map
              (fun s -> (s, Telemetry.Snapshot.total_seconds snap s))
              ct_stage_names
          in
          (total, stages)
        in
        let timed = List.map (fun m -> (Methods.to_string m, time m)) Methods.all in
        ( b.Benchsuite.Bench_intf.name,
          List.map (fun (n, (total, _)) -> (n, total)) timed,
          snd (List.assoc (Methods.to_string Methods.Gdp) timed) ))
      benches
  in
  {
    ct_rows = List.map (fun (b, totals, _) -> (b, totals)) rows;
    ct_stages = List.map (fun (b, _, stages) -> (b, stages)) rows;
  }

(* ------------------------------------------------------------------ *)
(* Scenario matrix: the paper's sweep generalized past the 2-cluster
   bus — cluster counts 2/4/8/16, an asymmetric FU mix, and all four
   interconnect topologies.  Each scenario is a [Machine_spec], so the
   whole matrix rides the machine-keyed sweep memo and fans over the
   [Exec] pool under [-j N] exactly like the paper figures.            *)

type scenario = { sc_name : string; sc_spec : Machine_spec.t }

let preset_exn ~link_latency name =
  match Machine_spec.preset ~link_latency name with
  | Ok spec -> spec
  | Error m -> invalid_arg ("experiments: scenario preset: " ^ m)

(** The scenario list: 2/4 clusters on a bus (the paper machine and its
    k-way scaling), 4 clusters on a contention-free crossbar, the
    asymmetric [hetero4] mix, an 8-cluster ring and a 4x4 mesh — every
    topology and every cluster count of the tentpole matrix. *)
let scenario_matrix ?(link_latency = 5) () : scenario list =
  let legacy clusters =
    Machine_spec.of_legacy ~clusters ~move_latency:link_latency
  in
  let xbar4 =
    {
      Machine_spec.name = Fmt.str "xbar4-2i1f1m1b-lat%d" link_latency;
      clusters = List.init 4 (fun _ -> Machine_spec.paper_cluster);
      topology = Vliw_machine.Crossbar;
      link_latency;
      link_bandwidth = 1;
    }
  in
  [
    { sc_name = "bus2"; sc_spec = legacy 2 };
    { sc_name = "bus4"; sc_spec = legacy 4 };
    { sc_name = "xbar4"; sc_spec = xbar4 };
    { sc_name = "hetero4"; sc_spec = preset_exn ~link_latency "hetero4" };
    { sc_name = "ring8"; sc_spec = preset_exn ~link_latency "ring8" };
    { sc_name = "mesh16"; sc_spec = preset_exn ~link_latency "mesh16" };
  ]

type scenario_result = { scn : scenario; scn_rows : row list }

(** Run the whole matrix.  All (benchmark, scenario) cells are
    prefetched through one [Exec] pool first, so [-j N] parallelism
    covers the full matrix, not one scenario at a time. *)
let scenario_sweep ?(jobs = 1) ?benches ?(link_latency = 5) () :
    scenario_result list =
  let scenarios = scenario_matrix ~link_latency () in
  prefetch_machines ~jobs ?benches
    ~specs:(List.map (fun s -> s.sc_spec) scenarios)
    ();
  List.map
    (fun s ->
      { scn = s; scn_rows = run_all_machine ~jobs ?benches ~spec:s.sc_spec () })
    scenarios

let render_scenario_matrix ppf (results : scenario_result list) =
  Fmt.pf ppf
    "@.Scenario matrix: performance relative to unified memory (1.0 = \
     unified) across cluster counts, FU mixes and interconnects@.";
  let avg_rel rows name =
    let vs = List.filter_map (fun r -> relative_opt r name) rows in
    if vs = [] then None
    else Some (List.fold_left ( +. ) 0. vs /. float (List.length vs))
  in
  let avg_cell rows name =
    match avg_rel rows name with Some v -> Fmt.str "%.3f" v | None -> "n/a"
  in
  let move_pct rows =
    (* total dynamic-move increase of GDP over unified, matrix-wide *)
    let sum name =
      List.fold_left
        (fun a r -> match moves_opt r name with Some m -> a + m | None -> a)
        0 rows
    in
    let u = sum "unified" and g = sum "gdp" in
    if u = 0 then Fmt.str "+%d" g else Fmt.str "%.1f%%" (Report.percent ~base:u g)
  in
  let header =
    [ "scenario"; "clusters"; "topology"; "GDP"; "ProfileMax"; "Naive"; "GDP moves" ]
  in
  let rows =
    List.map
      (fun { scn; scn_rows } ->
        let spec = scn.sc_spec in
        ( scn.sc_name,
          [
            string_of_int (List.length spec.Machine_spec.clusters);
            Vliw_machine.topology_name spec.Machine_spec.topology;
            avg_cell scn_rows "gdp";
            avg_cell scn_rows "profile-max";
            avg_cell scn_rows "naive";
            move_pct scn_rows;
          ] ))
      results
  in
  Report.table ppf ~header rows;
  (* per-benchmark GDP detail: one column per scenario *)
  Fmt.pf ppf "@.GDP relative performance per benchmark@.";
  let header = "benchmark" :: List.map (fun r -> r.scn.sc_name) results in
  let benches =
    match results with
    | [] -> []
    | r :: _ -> List.map (fun row -> row.bench) r.scn_rows
  in
  let rows =
    List.map
      (fun b ->
        ( b,
          List.map
            (fun { scn_rows; _ } ->
              match List.find_opt (fun row -> row.bench = b) scn_rows with
              | Some row -> (
                  match relative_opt row "gdp" with
                  | Some v -> Fmt.str "%.3f" v
                  | None -> "n/a")
              | None -> "n/a")
            results ))
      benches
  in
  Report.table ppf ~header rows

let render_compile_time ppf (r : compile_time_result) =
  Fmt.pf ppf
    "@.Section 4.5: partitioning time per method (seconds, telemetry spans; \
     Profile Max runs the detailed partitioner twice)@.";
  let header = [ "benchmark"; "GDP"; "ProfileMax"; "Naive"; "Unified"; "PM/GDP" ] in
  let rows =
    List.map
      (fun (b, times) ->
        let t n = List.assoc n times in
        ( b,
          [
            Fmt.str "%.4f" (t "gdp");
            Fmt.str "%.4f" (t "profile-max");
            Fmt.str "%.4f" (t "naive");
            Fmt.str "%.4f" (t "unified");
            Fmt.str "%.2fx" (t "profile-max" /. Float.max 1e-9 (t "gdp"));
          ] ))
      r.ct_rows
  in
  Report.table ppf ~header rows;
  Fmt.pf ppf
    "@.GDP per-stage partitioning time (seconds, telemetry spans)@.";
  let header = "benchmark" :: ct_stage_names @ [ "other" ] in
  let rows =
    List.map
      (fun (b, stages) ->
        let total = List.assoc b r.ct_rows |> List.assoc "gdp" in
        let staged = List.fold_left (fun a (_, s) -> a +. s) 0. stages in
        ( b,
          List.map (fun (_, s) -> Fmt.str "%.4f" s) stages
          @ [ Fmt.str "%.4f" (Float.max 0. (total -. staged)) ] ))
      r.ct_stages
  in
  Report.table ppf ~header rows
