(** The repository's benchmark: one command, three workloads.

    {v
    main.exe --workload suite-paper|mesh16-gdp|served-mixed
             --seed N --seconds S --trace 0|1
    v}

    The last line of standard output is one JSON object:
    [{"correct", "attempted", "failed", "metrics"}].  With [--trace 0]
    the metrics are the end-to-end ones; with [--trace 1] they are the
    per-layer ones, taken from spans the benchmark opens around each
    layer's public calls.  Every compile and every served response is
    checked; any failure makes the exit code 1.  See [layers.md] for the
    metrics, the layer each one times, and why each workload exists. *)

module Methods = Partition.Methods
module Suite = Benchsuite.Suite

type args = { workload : string; seed : int; seconds : float; trace : bool }

let workloads = [ "suite-paper"; "mesh16-gdp"; "served-mixed" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload suite-paper|mesh16-gdp|served-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None
  and seed = ref None
  and seconds = ref None
  and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads ->
        workload := Some w;
        go rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
        seed := int_of_string_opt n;
        go rest
    | "--seconds" :: s :: rest
      when Option.fold ~none:false ~some:(fun s -> s > 0.) (float_of_string_opt s)
      ->
        seconds := float_of_string_opt s;
        go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := Some (t = "1");
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
      { workload; seed; seconds; trace }
  | _ -> usage ()

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics and output                                               *)

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list (List.sort compare l) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Percentile, q in [0, 1], interpolated linearly between the two
   nearest order statistics: on the 18 jobs of mesh16-gdp a nearest-rank
   p50 is one job's latency, and its noise alone. *)
let percentile q = function
  | [] -> 0.
  | l ->
      let a = Array.of_list (List.sort compare l) in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((a.(hi) -. a.(lo)) *. (pos -. float_of_int lo))

(* sorted first, so the result does not depend on the list's order *)
let geomean = function
  | [] -> 0.
  | l ->
      exp
        (List.fold_left (fun acc x -> acc +. log (float_of_int x)) 0. (List.sort compare l)
        /. float_of_int (List.length l))

(* VmHWM of a process, in MB *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0.
            | line -> (
                match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
                | Some kb -> float_of_int kb /. 1024.
                | None -> scan ())
          in
          scan ())

type metric = string * float * string

(* Print the informational lines, then the result object as the last
   line, and exit 0 when everything checked out. *)
let finish ~args ~attempted ~failed ~info (metrics : metric list) =
  Printf.printf "workload: %s  seed: %d  trace: %d\n" args.workload args.seed
    (if args.trace then 1 else 0);
  List.iter print_endline info;
  Printf.printf "failed_frac: %.6f  (%d failed of %d attempted)\n"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit_) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (number v) unit_)
          metrics));
  exit (if failed = 0 then 0 else 1)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun entry -> remove_tree (Filename.concat path entry))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

(* Run output (span files, the daemon's socket and store) stays inside
   the checkout, in a directory dune and git both ignore. *)
let out_dir = "_perfbench"

let write_spans args =
  mkdir_p out_dir;
  Trace.write
    (Filename.concat out_dir
       (Printf.sprintf "spans-%s-%d.jsonl" args.workload args.seed))

(* Set-up is repeated [setup_reps] times and reported as the median, so
   one slow fork or page-in does not move it. *)
let setup_reps = 9

(* ------------------------------------------------------------------ *)
(* Inline workloads: suite-paper and mesh16-gdp                        *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Per-layer metrics of the inline workloads, from the spans: self time
   in ms (scaled by the run's calibration factor) and self allocation in
   Mwords, per pass over the job list; counts are for one pass.  The
   calibration slices between compiles are left out of the wall time, so
   the layers' self times plus compile.unaccounted_ms make up
   compile.wall_ms. *)
let layer_metrics ~passes ~wall_s ~factor
    (first : (string, Stages.outcome) Hashtbl.t) ~major_collections =
  let totals = Trace.self_totals () in
  let per_pass x = x /. float_of_int passes in
  let self name =
    Option.value (Hashtbl.find_opt totals name) ~default:(0., 0.)
  in
  let ms_of_s x = per_pass (x *. 1000. *. factor) in
  let ms name = ms_of_s (fst (self name)) in
  let mw name = per_pass (snd (self name) /. 1e6) in
  let count f =
    float_of_int
      (Hashtbl.fold (fun _ (o : Stages.outcome) acc -> acc + f o) first 0)
  in
  let wall_s = wall_s -. fst (self "calibration") in
  let layers =
    Hashtbl.fold
      (fun name (t, _) acc ->
        if name = "compile" || name = "calibration" then acc else acc +. t)
      totals 0.
  in
  [
    ("minic.compile_ms", ms "minic.compile", "ms");
    ("minic.alloc_mw", mw "minic.compile", "Mw");
    ("vliw_opt.ms", ms "vliw_opt", "ms");
    ("vliw_opt.ops_out", count (fun o -> o.counts.ops_out), "count");
    ("vliw_interp.profile_ms", ms "vliw_interp.profile", "ms");
    ("vliw_interp.profile_alloc_mw", mw "vliw_interp.profile", "Mw");
    ("vliw_analysis.points_to_ms", ms "vliw_analysis.points_to", "ms");
    ("partition.merge_ms", ms "partition.merge", "ms");
    ("vliw_analysis.prog_dfg_ms", ms "vliw_analysis.prog_dfg", "ms");
    ("vliw_analysis.dfg_edges", count (fun o -> o.counts.dfg_edges), "count");
    ("partition.gdp_ms", ms "partition.gdp", "ms");
    ("partition.gdp_alloc_mw", mw "partition.gdp", "Mw");
    ("partition.gdp_edgecut", count (fun o -> o.counts.edgecut), "count");
    ("partition.baselines_ms", ms "partition.baselines", "ms");
    ("partition.rhop_ms", ms "partition.rhop", "ms");
    ("partition.rhop_alloc_mw", mw "partition.rhop", "Mw");
    ("partition.rhop_calls", count (fun o -> o.counts.rhop_calls), "count");
    ("vliw_sched.move_insert_ms", ms "vliw_sched.move_insert", "ms");
    ("vliw_sched.static_moves", count (fun o -> o.counts.static_moves), "count");
    ("vliw_sched.validate_ms", ms "vliw_sched.validate", "ms");
    ("vliw_sched.perf_ms", ms "vliw_sched.perf", "ms");
    ("vliw_sched.total_cycles", count (fun o -> o.artifact.cycles), "cycles");
    ("vliw_sched.sim_ms", ms "vliw_sched.sim", "ms");
    ("vliw_sched.sim_alloc_mw", mw "vliw_sched.sim", "Mw");
    ("vliw_interp.verify_ms", ms "vliw_interp.verify", "ms");
    ("gc.major_collections", per_pass (float_of_int major_collections), "count");
    ("compile.wall_ms", ms_of_s wall_s, "ms");
    ("compile.unaccounted_ms", ms_of_s (wall_s -. layers), "ms");
  ]

(* Every workload reports every per-layer metric; those of layers it
   does not run read 0. *)
let zeroed metrics = List.map (fun (name, _, unit_) -> (name, 0., unit_)) metrics

(* The metrics only the served workload measures. *)
let service_metrics =
  [
    ("service.queue_ms_p50", "ms");
    ("service.queue_ms_p99", "ms");
    ("service.exec_ms_p50", "ms");
    ("service.exec_ms_p99", "ms");
    ("service.deliver_ms_p50", "ms");
    ("service.wire_ms_p50", "ms");
    ("service.cache_hit_frac", "ratio");
    ("service.cache_evictions", "count");
    ("service.coalesced", "count");
    ("exec.worker_crashes", "count");
    ("exec.respawns", "count");
    ("service.rejected", "count");
  ]
  |> List.map (fun (name, unit_) -> (name, 0., unit_))

(* [setup_reps] times: time [f], then calibrate; the median of the
   scaled times. *)
let median_setup f =
  median
    (List.init setup_reps (fun _ ->
         let dt = f () in
         let cal = Calib.create () in
         for _ = 1 to 5 do
           Calib.add cal
         done;
         dt *. Calib.factor cal))

let inline_workload args ~spec ~methods ~par_domains =
  let machine =
    match Machine_spec.preset spec with
    | Ok s -> Machine_spec.resolve s
    | Error m -> failwith m
  in
  let jobs =
    Array.of_list
      (List.concat_map (fun b -> List.map (fun m -> (b, m)) methods) Suite.all)
  in
  let rng = Random.State.make [| args.seed |] in
  (* Set-up: open the Par pool (mesh16-gdp), then one verified warm-up
     compile of the smallest kernel. *)
  let with_setup f =
    let t0 = now () in
    let body pool =
      (match Stages.compile ~machine ?pool Methods.Gdp (Suite.find "fir") with
      | Ok _ -> ()
      | Error m -> failwith ("warm-up compile failed: " ^ m));
      f pool (now () -. t0)
    in
    if par_domains >= 2 then
      Par.with_pool ~domains:par_domains (fun p -> body (Some p))
    else body None
  in
  let setup_s =
    median_setup (fun () -> with_setup (fun _ setup_time -> setup_time))
  in
  with_setup @@ fun pool _ ->
  let failed = ref 0 and compiles = ref 0 and passes = ref 0 in
  let first : (string, Stages.outcome) Hashtbl.t = Hashtbl.create 128 in
  (* job -> its scaled latency (ms) in each pass *)
  let latencies : (string, float list) Hashtbl.t = Hashtbl.create 128 in
  let cals = ref [] in
  Trace.enabled := args.trace;
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now () in
  while now () -. t0 < args.seconds do
    shuffle rng jobs;
    Array.iter
      (fun ((b : Benchsuite.Bench_intf.t), m) ->
        let key = Printf.sprintf "%s/%s" b.name (Methods.to_string m) in
        let c0 = now () in
        let r =
          Trace.with_span ~key:!compiles "compile" (fun () ->
              Stages.compile ~machine ?pool m b)
        in
        let ms = (now () -. c0) *. 1000. in
        incr compiles;
        let fail why =
          incr failed;
          Printf.eprintf "FAILED %s: %s\n%!" key why
        in
        (match r with
        | Error why -> fail why
        | Ok o -> (
            match Hashtbl.find_opt first key with
            | None -> Hashtbl.replace first key o
            | Some o1 ->
                if o1.Stages.artifact <> o.Stages.artifact then
                  fail "artifact differs from the same compile's first pass"));
        (* scaled by the calibration slices run right after it *)
        let cal = Calib.create () in
        Calib.add_for cal ~work_s:(ms /. 1000.);
        cals := cal :: !cals;
        Hashtbl.replace latencies key
          ((ms *. Calib.factor cal)
          :: Option.value (Hashtbl.find_opt latencies key) ~default:[]))
      jobs;
    incr passes
  done;
  let wall_s = now () -. t0 in
  let major_collections = (Gc.quick_stat ()).Gc.major_collections - gc0 in
  Trace.enabled := false;
  let factor = Calib.factor (Calib.merge !cals) in
  (* Each job's latency is its median over the passes, so a burst of
     load that slows one pass more than the calibration caught does not
     move the figures; throughput is the inverse of the mean of those
     medians. *)
  let job_ms = Hashtbl.fold (fun _ l acc -> median l :: acc) latencies [] in
  let compiles_per_s =
    float_of_int (List.length job_ms) *. 1000. /. List.fold_left ( +. ) 0. job_ms
  in
  let outcomes = Hashtbl.fold (fun _ o acc -> o :: acc) first [] in
  let info =
    [
      Printf.sprintf "passes: %d  compiles: %d  (%d jobs a pass)  wall: %.3f s"
        !passes !compiles (Array.length jobs) wall_s;
      Printf.sprintf "latency samples: %d jobs, each the median of %d passes"
        (List.length job_ms) !passes;
      Printf.sprintf "calibration factor: %.4f  (unscaled compiles/s: %.3f)"
        factor (compiles_per_s *. factor);
    ]
  in
  let metrics =
    if not args.trace then
      [
        ("setup_s", setup_s, "s");
        ("compiles_per_s", compiles_per_s, "1/s");
        ("compile_ms_p50", percentile 0.5 job_ms, "ms");
        ("compile_ms_p90", percentile 0.9 job_ms, "ms");
        ("compile_ms_p99", percentile 0.99 job_ms, "ms");
        ( "cycles_geomean",
          geomean (List.map (fun (o : Stages.outcome) -> o.artifact.cycles) outcomes),
          "cycles" );
        ( "dynamic_moves_total",
          float_of_int
            (List.fold_left (fun acc (o : Stages.outcome) -> acc + o.artifact.moves) 0 outcomes),
          "moves" );
        ("peak_rss_mb", peak_rss_mb "self", "MB");
      ]
    else begin
      write_spans args;
      [
        ("traced.compiles_per_s", compiles_per_s, "1/s");
        ("traced.compile_ms_p50", percentile 0.5 job_ms, "ms");
      ]
      @ layer_metrics ~passes:!passes ~wall_s ~factor first ~major_collections
      @ service_metrics
    end
  in
  finish ~args ~attempted:!compiles ~failed:!failed ~info metrics

(* ------------------------------------------------------------------ *)
(* Served workload: served-mixed                                       *)

module Client = Service.Client
module Protocol = Service.Protocol

(* 40% of the requests draw from a hot set of 16 programs, so they hit
   the artifact cache; the rest are programs not sent before, so they
   miss, compile and fill the cache (256 entries) and the durable store.
   At an even split the median latency would sit on the edge between the
   hit and the miss populations and jump between them from run to run;
   at 40% every reported percentile is a miss's latency.
   The hot set is the same for every seed, so the cycles and moves of
   its artifacts are comparable across seeds; the seed picks the unique
   programs and the order of the stream. *)
let hot_set_size = 16
let hot_seed = 1_000_000
let warmup_seed = 2_000_000
let connections = 2
let daemon_workers = 2

(* Only tiny programs are served: no generated loop (those are fully
   unrolled, and nest) and at most 600 bytes of source.  Unfiltered, the
   generator's compile cost has a tail past 0.5 s that would make RHOP on
   a few rare programs decide the throughput; filtered, a verified
   compile takes a few ms, so the serving path dominates. *)
let tiny src =
  String.length src <= 600
  &&
  let pat = "for (int i" in
  let n = String.length pat in
  let rec no_loop i =
    i + n > String.length src || (String.sub src i n <> pat && no_loop (i + 1))
  in
  no_loop 0

let job_of ~id source =
  {
    Protocol.id;
    source;
    input = Array.to_list Gdp_fuzz.Gen_minic.input;
    settings = Gdp_core.Pipeline.Settings.default Methods.Gdp;
    deadline_ms = None;
    verify = true;
    trace_id = None;
  }

let spawn_daemon ~dir i =
  let socket = Filename.concat dir (Printf.sprintf "gdpcd-%d.sock" i) in
  let store = Filename.concat dir (Printf.sprintf "store-%d" i) in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code =
        try
          Service.Server.run
            {
              Service.Server.default_config with
              socket_path = Some socket;
              jobs = daemon_workers;
              cache_capacity = 256;
              store_dir = Some store;
            };
          0
        with _ -> 1
      in
      Unix._exit code
  | pid ->
      let give_up = now () +. 10. in
      let rec await () =
        if not (Sys.file_exists socket) then begin
          (match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _ -> failwith "gdpcd exited before binding its socket");
          if now () > give_up then failwith "gdpcd did not bind within 10 s";
          Unix.sleepf 0.001;
          await ()
        end
      in
      await ();
      ({ Service.Loadgen.sh_pid = pid; sh_socket = socket }, store)

let stop_daemon (handle, store) =
  Service.Loadgen.stop_server handle;
  remove_tree store

(* VmHWM of the daemon plus that of each of its worker processes *)
let daemon_rss_mb pid =
  let children =
    let path = Printf.sprintf "/proc/%d/task/%d/children" pid pid in
    match open_in path with
    | exception Sys_error _ -> []
    | ic ->
        let line = try input_line ic with End_of_file -> "" in
        close_in ic;
        List.filter (( <> ) "") (String.split_on_char ' ' line)
  in
  List.fold_left
    (fun acc p -> acc +. peak_rss_mb p)
    (peak_rss_mb (string_of_int pid))
    children

let num_field path doc =
  let rec go doc = function
    | [] -> Minijson.to_float doc
    | k :: rest -> Option.bind (Minijson.member k doc) (fun d -> go d rest)
  in
  Option.value (go doc path) ~default:0.

let str_field k doc = Option.bind (Minijson.member k doc) Minijson.to_string

(* the span list of a response's gdp-trace/1 record *)
let trace_spans trace =
  Option.value ~default:[]
    (Option.bind trace (fun t -> Option.bind (Minijson.member "spans" t) Minijson.to_list))

(* What one response's gdp-trace/1 record says about where it spent its
   time. *)
type observation = {
  latency_s : float;
  tier : string;  (** compute, memory, store or coalesced *)
  total_us : float;
  queue_us : float;
  exec_us : float;
  deliver_us : float;
}

let observe ~latency_s trace =
  let segment name =
    match List.find_opt (fun s -> str_field "name" s = Some name) (trace_spans trace) with
    | Some s -> num_field [ "dur_us" ] s
    | None -> 0.
  in
  let field k = Option.fold ~none:0. ~some:(num_field [ k ]) trace in
  {
    latency_s;
    tier = Option.value ~default:"none" (Option.bind trace (str_field "cache_tier"));
    total_us = field "total_us";
    queue_us = field "queue_us";
    exec_us = field "exec_us";
    deliver_us = segment "deliver";
  }

(* Server segments of a traced response, as children of the client's
   request span. *)
let record_segments ~parent ~key trace =
  List.iter
    (fun s ->
      match (Option.bind (Minijson.member "parent" s) Minijson.to_int, str_field "name" s) with
      | Some 0, Some name ->
          let start_s = num_field [ "start_us" ] s /. 1e6 in
          ignore
            (Trace.record ~parent ~key ("service." ^ name) ~start_s
               ~stop_s:(start_s +. (num_field [ "dur_us" ] s /. 1e6)))
      | _ -> ())
    (trace_spans trace)

type slot = {
  cl : Client.t;
  mutable busy : (int * int * float) option;  (** request, program, sent at *)
}

let served_workload args =
  let dir = Filename.concat out_dir (Printf.sprintf "served-%d" (Unix.getpid ())) in
  mkdir_p dir;
  (* program index -> source: 0..15 are the hot set, the rest unique *)
  let sources : (int, string) Hashtbl.t = Hashtbl.create 4096 in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
  let fresh_program seed_of =
    let rec go k =
      let src = Gdp_fuzz.Gen_minic.gen_program_with_seed (seed_of k) in
      if (not (tiny src)) || Hashtbl.mem seen src then go (k + 1)
      else begin
        Hashtbl.replace seen src ();
        src
      end
    in
    go 0
  in
  for i = 0 to hot_set_size - 1 do
    Hashtbl.replace sources i (fresh_program (fun k -> hot_seed + (1000 * i) + k))
  done;
  let warmup_sources =
    List.init connections (fun i -> fresh_program (fun k -> warmup_seed + (100 * i) + k))
  in
  let rng = Random.State.make [| args.seed |] in
  let next_unique = ref hot_set_size in
  let next_program () =
    if Random.State.int rng 10 < 4 then Random.State.int rng hot_set_size
    else begin
      let idx = !next_unique in
      incr next_unique;
      Hashtbl.replace sources idx (fresh_program (fun _ -> Random.State.bits rng));
      idx
    end
  in
  (* Set-up: fork gdpcd (2 workers, empty durable store), connect both
     clients, ping, and send each connection one warm-up compile. *)
  let setup i =
    let t0 = now () in
    let daemon = spawn_daemon ~dir i in
    let slots =
      Array.init connections (fun _ ->
          { cl = Client.connect ~attempts:20 (fst daemon).Service.Loadgen.sh_socket; busy = None })
    in
    Array.iteri
      (fun c slot ->
        (match Client.rpc slot.cl Protocol.Ping with
        | Ok Protocol.Pong -> ()
        | _ -> failwith "gdpcd did not answer ping");
        match
          Client.submit slot.cl
            (job_of ~id:(Printf.sprintf "warm-%d" c) (List.nth warmup_sources c))
        with
        | Ok (Protocol.Result _) -> ()
        | _ -> failwith "warm-up compile failed")
      slots;
    (daemon, slots, now () -. t0)
  in
  let close (daemon, slots, _) =
    Array.iter (fun s -> Client.close s.cl) slots;
    stop_daemon daemon
  in
  let setup_s =
    median_setup (fun () ->
        let ((_, _, dt) as s) = setup 0 in
        close s;
        dt)
  in
  let ((daemon, slots, _) as running) = setup 1 in
  let daemon_pid = (fst daemon).Service.Loadgen.sh_pid in
  let observations = ref [] and failed = ref 0 and sent = ref 0 in
  (* program index -> the encoded artifact of its first response *)
  let artifact_of : (int, string) Hashtbl.t = Hashtbl.create 4096 in
  let fail why =
    incr failed;
    Printf.eprintf "FAILED %s\n%!" why
  in
  (* The window is cut into slices of about 1 s, and each end-to-end
     figure is the median over the slices of the slice's figure, so a
     burst of outside load within a slice does not move it.  After each
     slice no new request goes out, the outstanding ones are answered,
     and the client runs calibration slices while the daemon idles; the
     figures are scaled by the factor of all those slices together (one
     slice group is too short to tell the host's speed from its
     jitter). *)
  let slices = max 1 (int_of_float args.seconds) in
  let slice_s = args.seconds /. float_of_int slices in
  (* per slice: responses per second and latencies (ms) *)
  let per_slice = ref [] and cal = Calib.create () in
  (* Issue requests until [slice_s] has passed since [s0], then wait for
     the outstanding ones; returns the observations and the time the
     last response arrived. *)
  let run_slice s0 =
    let obs = ref [] and last = ref s0 in
    let issue slot =
      let prog = next_program () in
      let id = !sent in
      incr sent;
      Client.send slot.cl
        (Protocol.Submit (job_of ~id:(string_of_int id) (Hashtbl.find sources prog)));
      slot.busy <- Some (id, prog, now ())
    in
    Array.iter issue slots;
    while Array.exists (fun s -> s.busy <> None) slots do
      let fds =
        Array.fold_left
          (fun acc s -> if s.busy <> None then Client.fd s.cl :: acc else acc)
          [] slots
      in
      match Unix.select fds [] [] 30. with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> failwith "gdpcd sent no response for 30 s"
      | ready, _, _ ->
          Array.iter
            (fun slot ->
              match slot.busy with
              | Some (id, prog, sent_at) when List.mem (Client.fd slot.cl) ready ->
                  let resp = Client.recv slot.cl in
                  let t = now () in
                  last := t;
                  slot.busy <- None;
                  (match resp with
                  | Ok (Protocol.Result { id = rid; result; trace; _ })
                    when rid = string_of_int id ->
                      let bytes = Minijson.encode result in
                      (match Hashtbl.find_opt artifact_of prog with
                      | None -> Hashtbl.replace artifact_of prog bytes
                      | Some b when b = bytes -> ()
                      | Some _ ->
                          fail
                            (Printf.sprintf
                               "request %d: artifact differs from an earlier response" id));
                      obs := observe ~latency_s:(t -. sent_at) trace :: !obs;
                      if !Trace.enabled then
                        record_segments ~key:id trace
                          ~parent:
                            (Trace.record ~key:id "service.request" ~start_s:sent_at
                               ~stop_s:t)
                  | Ok (Protocol.Failed { reason; _ }) ->
                      fail (Printf.sprintf "request %d: %s" id reason)
                  | Ok _ -> fail (Printf.sprintf "request %d: unexpected response" id)
                  | Error m -> failwith (Printf.sprintf "request %d: %s" id m));
                  if t -. s0 < slice_s then issue slot
              | _ -> ())
            slots
    done;
    (!obs, !last)
  in
  let stats, rss_mb, wall_s =
    Fun.protect
      ~finally:(fun () -> close running)
      (fun () ->
        Trace.enabled := args.trace;
        let t0 = now () in
        for _ = 1 to slices do
          let s0 = now () in
          let obs, last = run_slice s0 in
          Trace.enabled := false;
          for _ = 1 to 8 do
            Calib.add cal
          done;
          Trace.enabled := args.trace;
          observations := obs @ !observations;
          per_slice :=
            ( float_of_int (List.length obs) /. (last -. s0),
              List.map (fun o -> o.latency_s *. 1000.) obs )
            :: !per_slice
        done;
        let wall_s = now () -. t0 in
        Trace.enabled := false;
        let stats =
          match Client.rpc slots.(0).cl Protocol.Stats with
          | Ok (Protocol.Stats_reply doc) -> doc
          | _ -> failwith "gdpcd did not answer stats"
        in
        (stats, daemon_rss_mb daemon_pid, wall_s))
  in
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  (* Outside the timed window: every program's served artifact must be
     byte-equal to an inline evaluation of the same job. *)
  let reference idx =
    match Protocol.evaluate_job (job_of ~id:"ref" (Hashtbl.find sources idx)) with
    | Ok art -> Some art
    | Error m ->
        fail (Printf.sprintf "program %d: inline evaluation failed: %s" idx m);
        None
  in
  Hashtbl.iter
    (fun idx bytes ->
      match reference idx with
      | Some art when Minijson.encode art <> bytes ->
          fail (Printf.sprintf "program %d: served artifact differs from the inline one" idx)
      | _ -> ())
    artifact_of;
  let hot = List.filter_map reference (List.init hot_set_size Fun.id) in
  let hot_field k = List.map (fun a -> int_of_float (num_field [ k ] a)) hot in
  let obs = !observations in
  let ok = List.length obs in
  let factor = Calib.factor cal in
  let ms f l = List.map (fun o -> f o /. 1000. *. factor) l in
  let computed = List.filter (fun o -> o.tier = "compute") obs in
  let hits = List.filter (fun o -> o.tier = "memory" || o.tier = "store") obs in
  let served_per_s = median (List.map fst !per_slice) /. factor in
  let slice_latency q =
    median (List.map (fun (_, l) -> percentile q l) !per_slice) *. factor
  in
  let info =
    [
      Printf.sprintf
        "requests: %d  responses: %d  unique programs: %d  cache hits: %d  computed: %d  wall: %.3f s"
        !sent ok
        (!next_unique - hot_set_size)
        (List.length hits) (List.length computed) wall_s;
      Printf.sprintf "latency samples: %d, in %d slices of %.2f s" ok slices slice_s;
      Printf.sprintf "calibration factor: %.4f  (unscaled compiles/s: %.3f)"
        factor (served_per_s *. factor);
    ]
  in
  let metrics =
    if not args.trace then
      [
        ("setup_s", setup_s, "s");
        ("compiles_per_s", served_per_s, "1/s");
        ("compile_ms_p50", slice_latency 0.5, "ms");
        ("compile_ms_p90", slice_latency 0.9, "ms");
        ("compile_ms_p99", slice_latency 0.99, "ms");
        ("cycles_geomean", geomean (hot_field "cycles"), "cycles");
        ( "dynamic_moves_total",
          float_of_int (List.fold_left ( + ) 0 (hot_field "dynamic_moves")),
          "moves" );
        ("peak_rss_mb", rss_mb, "MB");
      ]
    else begin
      write_spans args;
      [
        ("traced.compiles_per_s", served_per_s, "1/s");
        ("traced.compile_ms_p50", slice_latency 0.5, "ms");
      ]
      @ zeroed
          (layer_metrics ~passes:1 ~wall_s:0. ~factor:1. (Hashtbl.create 1)
             ~major_collections:0)
      @ [
          ("service.queue_ms_p50", percentile 0.5 (ms (fun o -> o.queue_us) computed), "ms");
          ("service.queue_ms_p99", percentile 0.99 (ms (fun o -> o.queue_us) computed), "ms");
          ("service.exec_ms_p50", percentile 0.5 (ms (fun o -> o.exec_us) computed), "ms");
          ("service.exec_ms_p99", percentile 0.99 (ms (fun o -> o.exec_us) computed), "ms");
          ("service.deliver_ms_p50", percentile 0.5 (ms (fun o -> o.deliver_us) computed), "ms");
          ( "service.wire_ms_p50",
            percentile 0.5
              (List.map
                 (fun o -> ((o.latency_s *. 1000.) -. (o.total_us /. 1000.)) *. factor)
                 obs),
            "ms" );
          ( "service.cache_hit_frac",
            float_of_int (List.length hits) /. float_of_int (max 1 ok),
            "ratio" );
          ("service.cache_evictions", num_field [ "cache"; "evictions" ] stats, "count");
          ("service.coalesced", num_field [ "coalesced" ] stats, "count");
          ("exec.worker_crashes", num_field [ "pool"; "crashes" ] stats, "count");
          ("exec.respawns", num_field [ "pool"; "respawns" ] stats, "count");
          ("service.rejected", num_field [ "rejected" ] stats, "count");
        ]
    end
  in
  finish ~args ~attempted:!sent ~failed:!failed ~info metrics

let main () =
  let args = parse_args () in
  match args.workload with
  | "suite-paper" ->
      inline_workload args ~spec:"paper" ~methods:Methods.all ~par_domains:1
  | "mesh16-gdp" ->
      inline_workload args ~spec:"mesh16" ~methods:[ Methods.Gdp ] ~par_domains:2
  | "served-mixed" -> served_workload args
  | _ -> usage ()

let () = main ()
