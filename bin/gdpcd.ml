(* gdpcd: the compile-as-a-service daemon.

   A thin command line over Service.Server and the only way to start a
   long-running daemon ([gdpc submit], [gdpc top] and [gdpc trace] are
   its clients).  SIGTERM and SIGINT stop it cleanly: outstanding jobs
   are answered "server shutting down", workers are reaped, the socket
   is unlinked. *)

open Cmdliner

let socket_arg =
  Arg.(
    value
    & opt string "gdpcd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Also listen on TCP (e.g. 127.0.0.1:7070).")

let jobs_arg =
  Arg.(
    value
    & opt int 2
    & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker processes in the pool.")

let par_workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "par-domains" ] ~docv:"N"
        ~doc:
          "Cap the domains any single job's intra-compile parallelism \
           (settings field par_domains) may actually use: a limit for \
           loaded hosts.  Artifacts never depend on it.")

let cache_arg =
  Arg.(
    value
    & opt int 256
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"Artifact cache bound (entries, LRU beyond it).")

let max_pending_arg =
  Arg.(
    value
    & opt int 64
    & info [ "max-pending" ] ~docv:"N"
        ~doc:
          "Reject new submissions once this many jobs are pending \
           (backpressure; rejections carry a retry_after_ms hint).")

let brownout_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "brownout" ] ~docv:"FRAC"
        ~doc:
          "Fraction of --max-pending at which brown-out begins: the server \
           first sheds verification, then degrades the partitioning method \
           down the fallback ladder (GDP, then Profile Max, then Naive) as \
           pressure approaches the cap.  1.0 (the default) disables \
           brown-out.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Durable artifact store directory: artifacts survive restarts \
           (even kill -9) and are scrubbed for corruption at startup.")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Arm server-side chaos (fault spec, e.g. \
           'service.worker.kill@5*,service.cache.corrupt@3*').")

let inject_seed_arg =
  Arg.(
    value
    & opt int 0
    & info [ "inject-seed" ] ~docv:"N"
        ~doc:"Seed for the --inject spec (deterministic chaos).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace-event JSON file on shutdown.")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Append each request's gdp-trace/1 record to this file as one \
           JSON line when the request ends, however it ends: the same \
           record the response carries and 'gdpc trace' shows.  One line \
           per submit.")

let verbose_arg =
  Arg.(
    value & flag_all
    & info [ "v"; "verbose" ]
        ~doc:"Increase log verbosity (repeat for debug output).")

let parse_hostport s =
  match String.rindex_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (host, p)
      | _ -> Error (Fmt.str "invalid TCP endpoint %S" s))
  | _ -> Error (Fmt.str "invalid TCP endpoint %S (want host:port)" s)

let main socket tcp jobs par_workers cache_capacity max_pending brownout
    store_dir inject inject_seed trace events verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level
    (Some
       (match List.length verbose with
       | 0 -> Logs.Info
       | 1 -> Logs.Debug
       | _ -> Logs.Debug));
  let tcp =
    match tcp with
    | None -> None
    | Some s -> (
        match parse_hostport s with
        | Ok hp -> Some hp
        | Error m ->
            Fmt.epr "error: %s@." m;
            exit 1)
  in
  try
    Service.Server.run
      {
        Service.Server.socket_path = Some socket;
        tcp;
        jobs;
        cache_capacity;
        max_pending;
        trace;
        events;
        par_workers;
        store_dir;
        brownout;
        inject = Option.map (fun s -> (s, inject_seed)) inject;
      }
  with
  | Unix.Unix_error (e, op, arg) ->
      Fmt.epr "error: %s (%s %s)@." (Unix.error_message e) op arg;
      exit 1
  | Invalid_argument m | Failure m ->
      Fmt.epr "error: %s@." m;
      exit 1

let () =
  let doc = "compile-as-a-service daemon for the GDP pipeline" in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "gdpcd" ~version:"1.0.0" ~doc)
          Term.(
            const main $ socket_arg $ tcp_arg $ jobs_arg $ par_workers_arg
            $ cache_arg $ max_pending_arg $ brownout_arg $ store_arg
            $ inject_arg $ inject_seed_arg $ trace_arg $ events_arg
            $ verbose_arg)))
