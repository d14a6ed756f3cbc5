(* gdpc: command-line driver for the GDP compiler pipeline.

   Subcommands:
     gdpc compile FILE        compile MiniC and print the IR
     gdpc run FILE            compile and interpret
     gdpc partition FILE      full pipeline: partition, schedule, report
     gdpc explain FILE        cycle attribution + placement report
     gdpc bench [NAME]        evaluate suite benchmarks (all methods)
     gdpc fuzz                differential fuzzing over random programs
     gdpc list                list suite benchmarks *)

open Cmdliner

(** A user-facing error already rendered to a clean message: no
    backtrace, no exception constructor — just the message and a
    non-zero exit. *)
exception Cli_error of string

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error m -> raise (Cli_error (Fmt.str "cannot read %s: %s" path m))

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file.")

(** Workload vector conv: comma-separated integers, rejected with a
    proper usage error (not a raw [int_of_string] failure) on junk. *)
let input_conv : int array Arg.conv =
  let parse s =
    if String.trim s = "" then Ok [||]
    else
      let words = String.split_on_char ',' s in
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | w :: rest -> (
            match int_of_string_opt (String.trim w) with
            | Some i -> go (i :: acc) rest
            | None ->
                Error
                  (`Msg
                    (Fmt.str
                       "invalid input vector %S: %S is not an integer \
                        (expected comma-separated integers, e.g. '1,2,3')"
                       s (String.trim w))))
      in
      go [] words
  in
  let print ppf a = Fmt.pf ppf "%a" Fmt.(array ~sep:comma int) a in
  Arg.conv ~docv:"WORDS" (parse, print)

let input_arg =
  Arg.(
    value
    & opt input_conv [||]
    & info [ "i"; "input" ] ~docv:"WORDS"
        ~doc:"Workload input vector: comma-separated integers read by in(i).")

let no_unroll =
  Arg.(value & flag & info [ "no-unroll" ] ~doc:"Disable loop unrolling.")

let no_promote =
  Arg.(value & flag & info [ "no-promote" ] ~doc:"Disable scalar promotion.")

let no_ifconvert =
  Arg.(value & flag & info [ "no-ifconvert" ] ~doc:"Disable if-conversion.")

let latency_arg =
  Arg.(
    value
    & opt int 5
    & info [ "l"; "latency" ] ~docv:"CYCLES"
        ~doc:"Intercluster move latency (the paper uses 1, 5 or 10).")

let method_arg =
  let method_conv =
    Arg.enum
      (List.map
         (fun m -> (Partition.Methods.to_string m, m))
         Partition.Methods.all)
  in
  Arg.(
    value
    & opt method_conv Partition.Methods.Gdp
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:"Partitioning method: gdp, profile-max, naive or unified.")

let clusters_arg =
  Arg.(
    value
    & opt int 2
    & info [ "c"; "clusters" ] ~docv:"N" ~doc:"Number of clusters (power of two).")

let machine_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "machine" ] ~docv:"NAME|FILE"
        ~doc:
          (Fmt.str
             "Machine description: a preset name (%s) or a path to a \
              gdp-machine/1 JSON spec file (see docs/machine.md).  \
              Overrides $(b,--clusters); $(b,--latency) rescales presets \
              but is ignored for spec files, which carry their own \
              link_latency."
             (String.concat ", " Machine_spec.preset_names)))

(* Resolve --machine/--clusters/--latency into one declarative spec: a
   preset (rescaled by --latency), a spec file, or the legacy
   clusters/latency pair.  A --machine argument that is neither a known
   preset nor an existing file reports the preset error (the likelier
   intent). *)
let machine_spec_of_args ~machine ~clusters ~latency : Machine_spec.t =
  match machine with
  | None ->
      if clusters < 1 then
        raise (Cli_error (Fmt.str "--clusters must be >= 1 (got %d)" clusters));
      Machine_spec.of_legacy ~clusters ~move_latency:latency
  | Some arg -> (
      match Machine_spec.preset ~link_latency:latency arg with
      | Ok spec -> spec
      | Error preset_err ->
          if Sys.file_exists arg then
            match Minijson.parse (read_file arg) with
            | Error m ->
                raise (Cli_error (Fmt.str "%s: invalid JSON: %s" arg m))
            | Ok doc -> (
                match Machine_spec.of_json doc with
                | Ok spec -> spec
                | Error m -> raise (Cli_error (Fmt.str "%s: %s" arg m)))
          else raise (Cli_error preset_err))

(* ------------------------------------------------------------------ *)
(* Observability: telemetry flags, log verbosity and fault injection,
   shared by every subcommand                                          *)

type obs = {
  trace : string option;
  stats : bool;
  stats_file : string option;
  injecting : bool;
  inject : Fault.spec option;
  inject_seed : int;
}

let inject_conv : Fault.spec Arg.conv =
  let parse s =
    match Fault.parse_spec s with Ok sp -> Ok sp | Error m -> Error (`Msg m)
  in
  Arg.conv ~docv:"SPEC" (parse, Fault.pp_spec)

let inject_arg =
  let points =
    String.concat ", " (List.map (fun p -> p.Fault.name) Fault.points)
  in
  Arg.(
    value
    & opt (some inject_conv) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          (Fmt.str
             "Arm deterministic fault injection: comma-separated \
              $(i,point)[@N|@*] entries, where @N fires once on the N-th \
              opportunity (default @1) and @* fires every time.  Points: \
              %s.  See docs/robustness.md."
             points))

let inject_seed_arg =
  Arg.(
    value
    & opt int 0
    & info [ "inject-seed" ] ~docv:"N"
        ~doc:"Seed for the injection PRNG: same spec + seed => same faults.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record telemetry and write a Chrome trace-event JSON file \
           (open it in chrome://tracing or https://ui.perfetto.dev).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Record telemetry and print a span-tree summary (total/self \
           times) and the counters, each summed over the run, when the \
           command finishes.")

let stats_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-file" ] ~docv:"FILE"
        ~doc:
          "Record telemetry and write the span-tree and counter summary \
           to $(docv) when the command finishes, so CI can archive stats \
           without scraping stdout.")

let verbose_arg =
  Arg.(
    value & flag_all
    & info [ "v"; "verbose" ]
        ~doc:"Increase log verbosity (repeat for debug output).")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only log errors.")

let setup_obs trace stats stats_file verbose quiet inject inject_seed =
  let level =
    if quiet then Some Logs.Error
    else
      match List.length verbose with
      | 0 -> Some Logs.Warning
      | 1 -> Some Logs.Info
      | _ -> Some Logs.Debug
  in
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level;
  if trace <> None || stats || stats_file <> None then Telemetry.enable ();
  (match inject with
  | Some spec -> Fault.arm ~seed:inject_seed spec
  | None -> Fault.disarm ());
  { trace; stats; stats_file; injecting = inject <> None; inject; inject_seed }

let obs_term =
  Term.(
    const setup_obs $ trace_arg $ stats_arg $ stats_file_arg $ verbose_arg
    $ quiet_arg $ inject_arg $ inject_seed_arg)

(** Flush recorded telemetry to the requested sinks; report the fault
    ledger when injection was armed. *)
let finish_obs obs =
  if obs.trace <> None || obs.stats || obs.stats_file <> None then begin
    let snap = Telemetry.snapshot () in
    (match obs.trace with
    | Some path -> Telemetry.Sink.write_chrome_trace path snap
    | None -> ());
    (match obs.stats_file with
    | Some path -> Telemetry.Sink.write_summary path snap
    | None -> ());
    if obs.stats then Fmt.pr "@.%a" Telemetry.Sink.summary snap
  end;
  if obs.injecting then Fmt.pr "%a@." Fault.pp_counts (Fault.counts ())

(** Rethrow a MiniC compile error as a [file:line:col] diagnostic with
    the offending source line and a caret under the column. *)
let with_compile_diagnostics ~path ~src f =
  try f ()
  with Minic.Compile_error { line; col; message } ->
    let b = Buffer.create 256 in
    Buffer.add_string b (Printf.sprintf "%s:%d:%d: %s" path line col message);
    (match List.nth_opt (String.split_on_char '\n' src) (line - 1) with
    | Some l when String.trim l <> "" ->
        Buffer.add_string b
          (Printf.sprintf "\n%s\n%s^" l (String.make (max 0 (col - 1)) ' '))
    | _ -> ());
    raise (Cli_error (Buffer.contents b))

let build_prog ~unroll ~promote ~ifconvert path =
  let src = read_file path in
  let prog =
    with_compile_diagnostics ~path ~src (fun () ->
        Telemetry.with_span "parse" (fun () -> Minic.compile ~unroll src))
  in
  Gdp_core.Pipeline.optimize ~promote ~if_convert:ifconvert prog

let handle_errors f =
  try f () with
  | Cli_error m ->
      Fmt.epr "error: %s@." m;
      exit 1
  | Minic.Compile_error _ as e ->
      Fmt.epr "error: %a@." Minic.pp_error e;
      exit 1
  | Vliw_interp.Interp.Runtime_error m ->
      Fmt.epr "runtime error: %s@." m;
      exit 1
  | Vliw_sched.Vliw_sim.Sim_error m ->
      Fmt.epr "simulation error: %s@." m;
      exit 1
  | Sys_error m | Invalid_argument m | Failure m ->
      Fmt.epr "error: %s@." m;
      exit 1

(* ------------------------------------------------------------------ *)
(* compile                                                             *)

let compile_cmd =
  let run obs file nu np ni =
    handle_errors (fun () ->
        let prog =
          Telemetry.with_span "compile" (fun () ->
              build_prog ~unroll:(not nu) ~promote:(not np)
                ~ifconvert:(not ni) file)
        in
        Fmt.pr "%a@." Vliw_ir.Prog.pp prog;
        finish_obs obs)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile MiniC to the VLIW IR and print it.")
    Term.(
      const run $ obs_term $ file_arg $ no_unroll $ no_promote $ no_ifconvert)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let run_cmd =
  let run obs file input nu np ni =
    handle_errors (fun () ->
        let prog =
          build_prog ~unroll:(not nu) ~promote:(not np) ~ifconvert:(not ni)
            file
        in
        let res =
          Telemetry.with_span "interpret" (fun () ->
              Vliw_interp.Interp.run prog ~input)
        in
        List.iter
          (fun v -> Fmt.pr "%a@." Vliw_interp.Interp.pp_value v)
          res.Vliw_interp.Interp.outputs;
        Fmt.epr "(%d interpreter steps)@." res.Vliw_interp.Interp.steps;
        finish_obs obs)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and interpret a MiniC program.")
    Term.(
      const run $ obs_term $ file_arg $ input_arg $ no_unroll $ no_promote
      $ no_ifconvert)

(* ------------------------------------------------------------------ *)
(* partition                                                           *)

let schedule_flag =
  Arg.(
    value & flag
    & info [ "s"; "schedule" ] ~doc:"Print the per-block VLIW schedules.")

let verify_flag =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Cross-check the result: clustered interpretation and cycle-level \
           simulation must reproduce the reference outputs and the static \
           cycle model.")

let robust_flag =
  Arg.(
    value & flag
    & info [ "robust" ]
        ~doc:
          "Evaluate with graceful degradation: when the requested method \
           fails an invariant or verification, fall back along \
           gdp -> profile-max -> naive -> unified instead of aborting.  \
           Implied by --inject.")

let par_domains_arg =
  Arg.(
    value
    & opt int 1
    & info [ "par-domains" ] ~docv:"N"
        ~doc:
          "Domains for intra-compile parallelism inside the partitioning \
           passes (default 1).  Only wall clock depends on N: the output \
           is identical for every N, on any machine.")

let partition_cmd =
  let run obs file input method_ latency clusters machine_name par_domains
      show_sched verify robust =
    handle_errors (fun () ->
        let source = read_file file in
        let bench =
          {
            Benchsuite.Bench_intf.name = Filename.basename file;
            description = "command-line program";
            source;
            input;
            exhaustive_ok = false;
          }
        in
        let prepared =
          with_compile_diagnostics ~path:file ~src:source (fun () ->
              Gdp_core.Pipeline.prepare bench)
        in
        let spec =
          machine_spec_of_args ~machine:machine_name ~clusters ~latency
        in
        let machine = Machine_spec.resolve spec in
        let ctx = Gdp_core.Pipeline.context ~machine prepared in
        let settings =
          {
            (Gdp_core.Pipeline.Settings.default method_) with
            machine = spec;
            par_domains;
          }
        in
        let e =
          if robust || Fault.armed () then begin
            match
              Gdp_core.Pipeline.run ~prepared ~ctx
                ~mode:(Gdp_core.Pipeline.Robust { verify = true })
                settings
            with
            | Error m -> raise (Cli_error m)
            | Ok (Gdp_core.Pipeline.Evaluated _) -> assert false
            | Ok (Gdp_core.Pipeline.Degraded r) ->
                List.iter
                  (fun fb ->
                    Fmt.pr "fallback: %a@." Gdp_core.Pipeline.pp_fallback fb)
                  r.Gdp_core.Pipeline.fallbacks;
                if r.Gdp_core.Pipeline.used <> r.Gdp_core.Pipeline.requested
                then
                  Fmt.pr "degraded: %s -> %s@."
                    (Partition.Methods.to_string r.Gdp_core.Pipeline.requested)
                    (Partition.Methods.to_string r.Gdp_core.Pipeline.used);
                r.Gdp_core.Pipeline.evaluation
          end
          else
            match
              Gdp_core.Pipeline.run ~ctx ~mode:Gdp_core.Pipeline.Plain settings
            with
            | Ok (Gdp_core.Pipeline.Evaluated e) -> e
            | Ok (Gdp_core.Pipeline.Degraded _) -> assert false
            | Error m -> raise (Cli_error m)
        in
        Fmt.pr "method: %s@."
          e.Gdp_core.Pipeline.outcome.Partition.Methods.method_name;
        Fmt.pr "%a@." Vliw_machine.pp machine;
        (match e.Gdp_core.Pipeline.outcome.Partition.Methods.obj_home with
        | [] -> Fmt.pr "object homes: (unified memory, none)@."
        | homes ->
            Fmt.pr "object homes:@.";
            List.iter
              (fun (obj, c) ->
                Fmt.pr "  %a -> cluster %d@." Vliw_ir.Data.pp_obj obj c)
              (List.sort compare homes));
        Fmt.pr "%a@." Vliw_sched.Perf.pp e.Gdp_core.Pipeline.report;
        if show_sched then begin
          let c = e.Gdp_core.Pipeline.outcome.Partition.Methods.clustered in
          let profile = ctx.Partition.Methods.profile in
          let sched =
            Vliw_sched.Move_insert.schedule ~machine
              ~objects_of:(Partition.Methods.objects_of ctx) c
          in
          Vliw_sched.Schedule.iter
            (fun f b s ->
              Fmt.pr "@.%s/%s (executed %d time(s)):@.%a@."
                (Vliw_ir.Func.name f)
                (Vliw_ir.Label.to_string (Vliw_ir.Block.label b))
                (Vliw_interp.Profile.block_count profile
                   ~func:(Vliw_ir.Func.name f) ~label:(Vliw_ir.Block.label b))
                Vliw_sched.List_sched.pp s)
            sched;
          match Vliw_sched.Occupancy.of_program ~machine ~profile sched with
          | Some occ ->
              Fmt.pr "@.whole-program %a@." Vliw_sched.Occupancy.pp occ;
              let shares = Vliw_sched.Occupancy.cluster_shares occ in
              Fmt.pr "cluster workload shares: %a@."
                Fmt.(array ~sep:sp (fmt "%.2f"))
                shares
          | None -> ()
        end;
        (if verify then
           match Gdp_core.Pipeline.verify prepared ctx e with
           | Ok () -> Fmt.pr "verification: OK@."
           | Error m ->
               Fmt.epr "verification FAILED: %s@." m;
               exit 1);
        finish_obs obs)
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:
         "Run the full pipeline: compile, profile, partition data and \
          computation, insert intercluster moves, schedule, and report \
          cycles.")
    Term.(
      const run $ obs_term $ file_arg $ input_arg $ method_arg $ latency_arg
      $ clusters_arg $ machine_arg $ par_domains_arg $ schedule_flag
      $ verify_flag $ robust_flag)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)

let explain_cmd =
  let run obs file input latency clusters machine_name out =
    handle_errors (fun () ->
        let source = read_file file in
        let bench =
          {
            Benchsuite.Bench_intf.name =
              Filename.remove_extension (Filename.basename file);
            description = "command-line program";
            source;
            input;
            exhaustive_ok = false;
          }
        in
        let prepared =
          with_compile_diagnostics ~path:file ~src:source (fun () ->
              Gdp_core.Pipeline.prepare bench)
        in
        let machine =
          Machine_spec.resolve
            (machine_spec_of_args ~machine:machine_name ~clusters ~latency)
        in
        let e = Gdp_report.Explain.explain ~machine prepared in
        (match out with
        | None -> Fmt.pr "%a" Gdp_report.Explain.to_markdown e
        | Some dir ->
            let files = Gdp_report.Explain.write_reports ~dir [ e ] in
            List.iter (fun f -> Fmt.pr "wrote %s@." f) files);
        finish_obs obs)
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:
            "Write the Markdown/CSV/JSON report files into $(docv) instead \
             of printing Markdown to stdout.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain where the cycles go: run every partitioning method, \
          attribute each cycle to a category (useful, issue stall, \
          transfer wait, memory serialization, empty), split per-object \
          accesses into local vs remote, and render the most expensive \
          data placements.")
    Term.(
      const run $ obs_term $ file_arg $ input_arg $ latency_arg $ clusters_arg
      $ machine_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* bench                                                               *)

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Number of worker processes to fan the work over (default 1 = \
           in-process).  Results are identical whatever N; only the wall \
           clock changes.")

let bench_cmd =
  let run obs name latency clusters machine_name jobs json =
    handle_errors (fun () ->
        let benches =
          match name with
          | Some n -> [ Benchsuite.Suite.find n ]
          | None -> Benchsuite.Suite.all
        in
        let spec = machine_spec_of_args ~machine:machine_name ~clusters ~latency in
        let rows =
          Gdp_core.Experiments.run_all_machine ~jobs:(Exec.clamp_jobs jobs)
            ~benches ~spec ()
        in
        let cell r name =
          match Gdp_core.Experiments.cycles_opt r name with
          | Some c -> string_of_int c
          | None -> "n/a"
        in
        let methods =
          List.map Partition.Methods.to_string Partition.Methods.all
        in
        Fmt.pr "%-12s" "benchmark";
        List.iter (fun m -> Fmt.pr " %12s" m) methods;
        Fmt.pr "@.";
        List.iter
          (fun r ->
            Fmt.pr "%-12s" r.Gdp_core.Experiments.bench;
            List.iter (fun m -> Fmt.pr " %12s" (cell r m)) methods;
            Fmt.pr "@.")
          rows;
        List.iter
          (fun r ->
            match r.Gdp_core.Experiments.error with
            | Some m ->
                Fmt.epr "warning: %s failed: %s@." r.Gdp_core.Experiments.bench
                  m
            | None -> ())
          rows;
        (match json with
        | Some path ->
            Minijson.write_file path
              (Minijson.obj
                 [
                   ("schema", Minijson.str "gdp-rows/1");
                   ("latency", Minijson.int latency);
                   ("machine", Machine_spec.to_json spec);
                   ( "rows",
                     Minijson.list
                       (List.map Gdp_core.Experiments.row_to_json rows) );
                 ]);
            Fmt.pr "wrote %s@." path
        | None -> ());
        finish_obs obs)
  in
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Benchmark name (default: all).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the result rows (cycles, moves, error per \
             benchmark and method) as machine-readable JSON — the rows \
             are independent of $(b,-j), so this file is what parallel \
             and sequential runs are compared on.")
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Evaluate suite benchmarks under all methods.")
    Term.(
      const run $ obs_term $ name_arg $ latency_arg $ clusters_arg
      $ machine_arg $ jobs_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)

let fuzz_cmd =
  let run obs count seed latencies corpus shrink_budget jobs =
    handle_errors (fun () ->
        let jobs = Exec.clamp_jobs jobs in
        let on_progress done_ mismatches =
          if jobs > 1 || done_ mod 25 = 0 || done_ = count then
            Fmt.epr "fuzz: %d/%d programs, %d mismatch(es)@." done_ count
              mismatches
        in
        let summary =
          Telemetry.with_span "fuzz" (fun () ->
              Gdp_fuzz.Fuzz.campaign ~jobs ~latencies ?corpus
                ~shrink_budget ~on_progress ~seed ~count ())
        in
        List.iter
          (fun (m, paths) ->
            Fmt.epr "mismatch: %a@." Gdp_fuzz.Fuzz.pp_mismatch m;
            List.iter (fun p -> Fmt.epr "  saved %s@." p) paths)
          summary.Gdp_fuzz.Fuzz.mismatches;
        let n_mismatches = List.length summary.Gdp_fuzz.Fuzz.mismatches in
        Fmt.pr "fuzz: %d programs (seeds %d..%d), %d mismatch(es)@."
          summary.Gdp_fuzz.Fuzz.programs seed
          (seed + count - 1)
          n_mismatches;
        finish_obs obs;
        if n_mismatches > 0 then exit 1)
  in
  let count_arg =
    Arg.(
      value
      & opt int 100
      & info [ "n"; "count" ] ~docv:"N"
          ~doc:"Number of random programs to generate and check.")
  in
  let seed_arg =
    Arg.(
      value
      & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "First generator seed; programs use seeds N..N+count-1, so a \
             campaign is reproducible and shardable.")
  in
  let latencies_arg =
    Arg.(
      value
      & opt (list int) Gdp_fuzz.Fuzz.default_latencies
      & info [ "latencies" ] ~docv:"CYCLES"
          ~doc:
            "Comma-separated intercluster move latencies to check each \
             program at.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Directory for crash reproducers: the failing program, a \
             shrunk variant and a mismatch report per finding.")
  in
  let shrink_arg =
    Arg.(
      value
      & opt int 256
      & info [ "max-shrink" ] ~docv:"N"
          ~doc:
            "Budget of pipeline re-evaluations the line-based shrinker may \
             spend per finding (0 disables shrinking).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the pipeline: random MiniC programs, every \
          partitioning method, interpreter vs cycle-level simulator vs \
          reference run.  Exits non-zero when any mismatch is found.")
    Term.(
      const run $ obs_term $ count_arg $ seed_arg $ latencies_arg $ corpus_arg
      $ shrink_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* submit / loadgen: clients of the gdpcd compile service             *)

let endpoint_arg =
  Arg.(
    value
    & opt string "gdpcd.sock"
    & info [ "s"; "server" ] ~docv:"ENDPOINT"
        ~doc:"Daemon endpoint: a Unix socket path or host:port.")

let pp_artifact ppf art =
  let geti k = Option.bind (Minijson.member k art) Minijson.to_int in
  let gets k = Option.bind (Minijson.member k art) Minijson.to_string in
  Fmt.pf ppf "method=%s cycles=%d dynamic_moves=%d static_moves=%d"
    (Option.value ~default:"?" (gets "method"))
    (Option.value ~default:(-1) (geti "cycles"))
    (Option.value ~default:(-1) (geti "dynamic_moves"))
    (Option.value ~default:(-1) (geti "static_moves"))

let submit_cmd =
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Fail the job if no result is ready within $(docv).")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Ask for the full differential check before the answer.")
  in
  let repeat_arg =
    Arg.(
      value
      & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Submit the identical job N times and report the cache hits \
             (the first compile misses, the rest must hit).")
  in
  let inline_arg =
    Arg.(
      value & flag
      & info [ "inline" ]
          ~doc:
            "Evaluate locally through the exact code path the daemon's \
             workers use, without connecting — for comparing served and \
             local results.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the raw artifact JSON instead of a summary.")
  in
  let connect_timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "connect-timeout" ] ~docv:"MS"
          ~doc:
            "Bound each connection attempt to $(docv) milliseconds (a dead \
             TCP endpoint fails fast instead of hanging).")
  in
  let io_timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "io-timeout" ] ~docv:"MS"
          ~doc:
            "Bound every read/write on the connection to $(docv) \
             milliseconds; a hung server surfaces as 'i/o timeout'.")
  in
  let retries_arg =
    Arg.(
      value
      & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Resubmit up to N times when the server rejects with a \
             retry_after_ms backpressure hint, sleeping the hinted \
             interval between attempts.")
  in
  let run obs file input method_ latency clusters machine_name par_domains
      server deadline verify repeat inline json connect_timeout io_timeout
      retries =
    handle_errors (fun () ->
        if repeat < 1 then raise (Cli_error "--repeat must be at least 1");
        let source = read_file file in
        let settings =
          {
            (Gdp_core.Pipeline.Settings.default method_) with
            machine = machine_spec_of_args ~machine:machine_name ~clusters ~latency;
            par_domains;
          }
        in
        let job i =
          {
            Service.Protocol.id =
              Fmt.str "%s#%d" (Filename.basename file) i;
            source;
            input = Array.to_list input;
            settings;
            deadline_ms = deadline;
            verify;
            trace_id = None (* the server assigns and reports one *);
          }
        in
        let show ?trace art cached =
          if json then Fmt.pr "%s@." (Minijson.encode art)
          else
            let tid =
              Option.bind trace (fun t ->
                  Option.bind (Minijson.member "trace_id" t) Minijson.to_string)
            in
            Fmt.pr "%s %a%a@."
              (if cached then "[cache hit]" else "[computed]")
              pp_artifact art
              (fun ppf -> function
                | None -> ()
                | Some id -> Fmt.pf ppf " trace=%s" id)
              tid
        in
        if inline then
          match Service.Protocol.evaluate_job (job 0) with
          | Error m -> raise (Cli_error m)
          | Ok art -> show art false
        else begin
          let ms_to_s = Option.map (fun ms -> float_of_int ms /. 1000.) in
          let cl =
            Service.Client.connect ~attempts:10
              ?connect_timeout:(ms_to_s connect_timeout)
              ?io_timeout:(ms_to_s io_timeout) server
          in
          Fun.protect
            ~finally:(fun () -> Service.Client.close cl)
            (fun () ->
              let hits = ref 0 in
              for i = 0 to repeat - 1 do
                match Service.Client.submit ~retries cl (job i) with
                | Error m -> raise (Cli_error m)
                | Ok (Service.Protocol.Result { cached; result; trace; _ }) ->
                    if cached then incr hits;
                    if i = 0 || not json then show ?trace result cached
                | Ok (Service.Protocol.Failed { reason; _ }) ->
                    raise (Cli_error reason)
                | Ok _ -> raise (Cli_error "unexpected response from server")
              done;
              if repeat > 1 then
                Fmt.pr "submitted %d identical jobs: %d cache hits@." repeat
                  !hits)
        end;
        finish_obs obs)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit one MiniC compile job to a running gdpcd daemon and print \
          the artifact.")
    Term.(
      const run $ obs_term $ file_arg $ input_arg $ method_arg $ latency_arg
      $ clusters_arg $ machine_arg $ par_domains_arg $ endpoint_arg
      $ deadline_arg $ verify_arg $ repeat_arg $ inline_arg $ json_arg
      $ connect_timeout_arg $ io_timeout_arg $ retries_arg)

let loadgen_cmd =
  let server_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "s"; "server" ] ~docv:"ENDPOINT"
          ~doc:
            "Target an already-running daemon; without it a private daemon \
             is forked for the run and torn down after.")
  in
  let connections_arg =
    Arg.(
      value
      & opt int 4
      & info [ "connections" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let requests_arg =
    Arg.(
      value
      & opt int 40
      & info [ "n"; "requests" ] ~docv:"N" ~doc:"Total requests to issue.")
  in
  let dup_arg =
    Arg.(
      value
      & opt float 0.5
      & info [ "duplicate-ratio" ] ~docv:"R"
          ~doc:
            "Fraction of requests drawn from a small shared program set \
             (cache-hit / coalescing candidates).")
  in
  let rate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"RPS"
          ~doc:
            "Open-loop arrival rate (requests/second); latency is measured \
             from each request's scheduled time.  Without it the loop is \
             closed: every connection fires as soon as its previous \
             response lands.")
  in
  let seed_arg =
    Arg.(
      value
      & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Request-plan seed (reproducible).")
  in
  let chaos_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Become a hostile client: a fault spec over the service points \
             (e.g. 'service.frame.torn@3*,service.client.disconnect@7*') \
             selects torn frames, corrupt frames, slow-loris sends and \
             mid-job disconnects, deterministically in (--chaos, \
             --inject-seed).")
  in
  let server_inject_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "server-inject" ] ~docv:"SPEC"
          ~doc:
            "Arm server-side chaos in the private daemon (worker kills, \
             store corruption).  Ignored with --server.")
  in
  let lg_max_pending_arg =
    Arg.(
      value
      & opt int 64
      & info [ "max-pending" ] ~docv:"N"
          ~doc:"Pending bound for the private daemon.  Ignored with --server.")
  in
  let lg_brownout_arg =
    Arg.(
      value
      & opt float 1.0
      & info [ "brownout" ] ~docv:"FRAC"
          ~doc:
            "Brown-out threshold for the private daemon.  Ignored with \
             --server.")
  in
  let lg_store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Durable artifact store for the private daemon.  Ignored with \
             --server.")
  in
  let run obs server connections requests dup rate method_ seed jobs chaos
      server_inject max_pending brownout store_dir =
    handle_errors (fun () ->
        (* the global --inject-seed seeds both --chaos and
           --server-inject, keeping a whole chaos run reproducible from
           one number *)
        let inject_seed = obs.inject_seed in
        let cfg endpoint =
          {
            Service.Loadgen.endpoint;
            connections;
            requests;
            duplicate_ratio = dup;
            mode =
              (match rate with
              | None -> Service.Loadgen.Closed
              | Some r -> Service.Loadgen.Open r);
            method_;
            deadline_ms = None;
            seed;
            chaos;
            inject_seed;
            max_attempts = Service.Loadgen.default_config.max_attempts;
          }
        in
        let summary =
          match server with
          | Some ep -> Service.Loadgen.run (cfg ep)
          | None ->
              Service.Loadgen.with_local_server ~jobs ~max_pending ~brownout
                ?store_dir
                ?inject:(Option.map (fun s -> (s, inject_seed)) server_inject)
                ?trace:obs.trace
                (fun ep -> Service.Loadgen.run (cfg ep))
        in
        let s = summary in
        Fmt.pr
          "requests %d (%d duplicates) over %d connection(s): %d ok, %d \
           failed, %d cache hits@."
          s.Service.Loadgen.requests s.Service.Loadgen.duplicates_sent
          s.Service.Loadgen.concurrency s.Service.Loadgen.succeeded
          s.Service.Loadgen.failed s.Service.Loadgen.cache_hits;
        Fmt.pr
          "throughput %.1f compiles/s, latency p50 %.0f us, p95 %.0f us, \
           p99 %.0f us, mean %.0f us@."
          s.Service.Loadgen.throughput_cps s.Service.Loadgen.p50_us
          s.Service.Loadgen.p95_us s.Service.Loadgen.p99_us
          s.Service.Loadgen.mean_us;
        if s.Service.Loadgen.traced > 0 then
          Fmt.pr
            "server side (%d traced): p50 %.0f us, p95 %.0f us, p99 %.0f us, \
             mean %.0f us (client-side overhead mean %.0f us)@."
            s.Service.Loadgen.traced s.Service.Loadgen.server_p50_us
            s.Service.Loadgen.server_p95_us s.Service.Loadgen.server_p99_us
            s.Service.Loadgen.server_mean_us
            (Float.max 0.
               (s.Service.Loadgen.mean_us -. s.Service.Loadgen.server_mean_us));
        if
          s.Service.Loadgen.shed > 0
          || s.Service.Loadgen.retries > 0
          || s.Service.Loadgen.injected > 0
          || s.Service.Loadgen.gave_up > 0
          || s.Service.Loadgen.artifact_mismatches > 0
        then
          Fmt.pr
            "shed %d, retries %d, injected %d, gave up %d, artifact \
             mismatches %d@."
            s.Service.Loadgen.shed s.Service.Loadgen.retries
            s.Service.Loadgen.injected s.Service.Loadgen.gave_up
            s.Service.Loadgen.artifact_mismatches;
        if s.Service.Loadgen.artifact_mismatches > 0 then
          raise
            (Cli_error
               (Fmt.str "%d artifact mismatch(es): served bytes diverged"
                  s.Service.Loadgen.artifact_mismatches));
        finish_obs { obs with trace = None })
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive concurrent compile load at a gdpcd daemon (forking a \
          private one by default) and report throughput, latency \
          percentiles and cache hit rate.")
    Term.(
      const run $ obs_term $ server_arg $ connections_arg $ requests_arg
      $ dup_arg $ rate_arg $ method_arg $ seed_arg $ jobs_arg $ chaos_arg
      $ server_inject_arg $ lg_max_pending_arg $ lg_brownout_arg $ lg_store_arg)

(* ------------------------------------------------------------------ *)
(* top / trace: observability consumers for a running daemon           *)

let admin_rpc cl req =
  match Service.Client.rpc cl req with
  | Ok resp -> resp
  | Error m -> raise (Cli_error m)

let with_admin_conn server f =
  let cl = Service.Client.connect ~attempts:5 server in
  Fun.protect ~finally:(fun () -> Service.Client.close cl) (fun () -> f cl)

let render_top endpoint metrics stats =
  let geti d n = Option.bind (Minijson.member n d) Minijson.to_int in
  let getf d n = Option.bind (Minijson.member n d) Minijson.to_float in
  let counters =
    Option.value ~default:(Minijson.obj []) (Minijson.member "counters" metrics)
  in
  let gauges =
    Option.value ~default:(Minijson.obj []) (Minijson.member "gauges" metrics)
  in
  let c n = Option.value ~default:0 (geti counters n) in
  let g n = Option.value ~default:0. (getf gauges n) in
  let pool =
    Option.value ~default:(Minijson.obj []) (Minijson.member "pool" stats)
  in
  Fmt.pr "gdpcd @ %s — up %.0f s, %.0f/%d workers alive, admission level %.0f@."
    endpoint (g "uptime_s") (g "workers_alive")
    (Option.value ~default:0 (geti pool "workers"))
    (g "admission_level");
  Fmt.pr
    "served %d  coalesced %d  rejected %d  deadline misses %d  shed verify %d  \
     degraded %d@."
    (c "served_total") (c "coalesced_total") (c "rejected_total")
    (c "deadline_misses_total") (c "shed_verify_total") (c "degraded_total");
  Fmt.pr
    "cache: %d hits, %d warm, %d misses, %d evictions, %.0f entries; %d \
     traces recorded@."
    (c "cache_hits_total") (c "cache_warm_hits_total") (c "cache_misses_total")
    (c "cache_evictions_total") (g "cache_entries") (c "traces_recorded_total");
  (match Minijson.member "latency_us" metrics with
  | Some (Minijson.Obj methods) when methods <> [] ->
      Fmt.pr "latency over the last %.0f s (us):@."
        (Option.value ~default:0. (getf metrics "window_s"));
      Fmt.pr "  %-14s %8s %9s %9s %9s@." "method" "count" "p50" "p95" "p99";
      List.iter
        (fun (m, h) ->
          Fmt.pr "  %-14s %8d %9.0f %9.0f %9.0f@." m
            (Option.value ~default:0 (geti h "count"))
            (Option.value ~default:0. (getf h "p50"))
            (Option.value ~default:0. (getf h "p95"))
            (Option.value ~default:0. (getf h "p99")))
        methods
  | _ -> Fmt.pr "no requests in the current window@.");
  match Minijson.member "queue_depth" metrics with
  | Some q when Option.value ~default:0 (geti q "count") > 0 ->
      Fmt.pr "queue depth: p50 %.0f, p95 %.0f, p99 %.0f (%d samples)@."
        (Option.value ~default:0. (getf q "p50"))
        (Option.value ~default:0. (getf q "p95"))
        (Option.value ~default:0. (getf q "p99"))
        (Option.value ~default:0 (geti q "count"))
  | _ -> ()

let top_cmd =
  let interval_arg =
    Arg.(
      value
      & opt float 2.0
      & info [ "interval" ] ~docv:"S" ~doc:"Refresh interval in seconds.")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Print one snapshot and exit instead of refreshing.")
  in
  let prometheus_arg =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "Print the raw Prometheus text exposition instead of the \
             dashboard (implies --once) — what a scrape job would see.")
  in
  let run obs server interval once prometheus =
    handle_errors (fun () ->
        if interval <= 0. then raise (Cli_error "--interval must be positive");
        let snapshot () =
          with_admin_conn server (fun cl ->
              if prometheus then
                match
                  admin_rpc cl
                    (Service.Protocol.Metrics Service.Protocol.Prometheus)
                with
                | Service.Protocol.Metrics_text_reply text ->
                    Fmt.pr "%s@?" text
                | _ ->
                    raise (Cli_error "unexpected response to metrics request")
              else
                let metrics =
                  match
                    admin_rpc cl
                      (Service.Protocol.Metrics Service.Protocol.Json)
                  with
                  | Service.Protocol.Metrics_reply doc -> doc
                  | _ ->
                      raise
                        (Cli_error "unexpected response to metrics request")
                in
                let stats =
                  match admin_rpc cl Service.Protocol.Stats with
                  | Service.Protocol.Stats_reply doc -> doc
                  | _ ->
                      raise (Cli_error "unexpected response to stats request")
                in
                render_top server metrics stats)
        in
        if once || prometheus then snapshot ()
        else begin
          let stop = ref false in
          let old =
            Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
          in
          Fun.protect
            ~finally:(fun () -> Sys.set_signal Sys.sigint old)
            (fun () ->
              while not !stop do
                Fmt.pr "\027[2J\027[H@?";
                snapshot ();
                if not !stop then
                  try ignore (Unix.select [] [] [] interval)
                  with Unix.Unix_error (Unix.EINTR, _, _) -> ()
              done)
        end;
        finish_obs obs)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard for a running gdpcd daemon: sliding-window latency \
          percentiles per method, queue depth, worker health and cache \
          counters, refreshed in place (Ctrl-C to quit).")
    Term.(
      const run $ obs_term $ endpoint_arg $ interval_arg $ once_arg
      $ prometheus_arg)

let render_trace doc =
  let gets n = Option.bind (Minijson.member n doc) Minijson.to_string in
  let getf n = Option.bind (Minijson.member n doc) Minijson.to_float in
  Fmt.pr "trace %s: job %s, %s via %s, total %.0f us (queue %.0f, exec %.0f)@."
    (Option.value ~default:"?" (gets "trace_id"))
    (Option.value ~default:"?" (gets "id"))
    (Option.value ~default:"?" (gets "outcome"))
    (Option.value ~default:"?" (gets "cache_tier"))
    (Option.value ~default:0. (getf "total_us"))
    (Option.value ~default:0. (getf "queue_us"))
    (Option.value ~default:0. (getf "exec_us"));
  let spans =
    Option.value ~default:[]
      (Option.bind (Minijson.member "spans" doc) Minijson.to_list)
    |> List.filter_map Telemetry.span_of_json
  in
  let base = Option.value ~default:0. (getf "start_us") in
  let children p =
    List.filter (fun (s : Telemetry.span) -> s.Telemetry.parent = p) spans
  in
  let rec render indent (s : Telemetry.span) =
    Fmt.pr "  %s%-*s %10.0f us  at +%.0f us@." indent
      (max 1 (30 - String.length indent))
      s.name s.dur_us
      (Float.max 0. (s.start_us -. base));
    List.iter (render (indent ^ "  ")) (children (Some s.id))
  in
  List.iter (render "") (children None)

let trace_cmd =
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE_ID"
          ~doc:
            "The trace id to look up — submit prints it (trace=...), and \
             every result/failed response carries it in its trace record.")
  in
  let run obs server id =
    handle_errors (fun () ->
        with_admin_conn server (fun cl ->
            match admin_rpc cl (Service.Protocol.Trace { trace_id = id }) with
            | Service.Protocol.Trace_reply doc -> render_trace doc
            | Service.Protocol.Error_reply m -> raise (Cli_error m)
            | _ -> raise (Cli_error "unexpected response to trace request"));
        finish_obs obs)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Render the recorded span tree of one recent request on a running \
          gdpcd daemon: queue wait, worker pick-up, pipeline stages and \
          delivery, with durations and offsets.")
    Term.(const run $ obs_term $ endpoint_arg $ id_arg)

let list_cmd =
  let run obs =
    List.iter
      (fun (b : Benchsuite.Bench_intf.t) ->
        Fmt.pr "%-12s %s%s@." b.Benchsuite.Bench_intf.name
          b.Benchsuite.Bench_intf.description
          (if b.Benchsuite.Bench_intf.exhaustive_ok then
             " [exhaustive-search capable]"
           else ""))
      Benchsuite.Suite.all;
    finish_obs obs
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the benchmark suite.")
    Term.(const run $ obs_term)

let () =
  let doc =
    "compiler-directed data partitioning for multicluster processors \
     (Chu & Mahlke, CGO 2006)"
  in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "gdpc" ~version:"1.0.0" ~doc)
          [
            compile_cmd;
            run_cmd;
            partition_cmd;
            explain_cmd;
            bench_cmd;
            fuzz_cmd;
            submit_cmd;
            loadgen_cmd;
            top_cmd;
            trace_cmd;
            list_cmd;
          ]))
