(** The gdpcd daemon event loop (see server.mli). *)

module Pipeline = Gdp_core.Pipeline

let src = Logs.Src.create "service" ~doc:"gdpcd daemon"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  socket_path : string option;
  tcp : (string * int) option;
  jobs : int;
  cache_capacity : int;
  max_pending : int;
  max_frame : int;
  trace : string option;
  events : string option;
  par_workers : int option;
  store_dir : string option;
  brownout : float;
  inject : (string * int) option;
}

let default_config =
  {
    socket_path = Some "gdpcd.sock";
    tcp = None;
    jobs = 2;
    cache_capacity = 256;
    max_pending = 64;
    max_frame = Frame.default_max_frame;
    trace = None;
    events = None;
    par_workers = None;
    store_dir = None;
    brownout = 1.0;
    inject = None;
  }

(* ------------------------------------------------------------------ *)
(* Worker function: runs in forked pool workers on jobs the server has
   already decoded and validated.  Every compile failure is folded into
   the returned result, so job errors stay deterministic (a raise would
   look like a worker crash and trigger a retry). *)

let now_us () = Unix.gettimeofday () *. 1e6

(* What a traced worker reports beside its result: its own wall-clock
   start and end (same machine as the server, so the server can derive
   queue and exec segments) and the pipeline spans it recorded. *)
type worker_timing = {
  wk_start_us : float;
  wk_end_us : float;
  wk_spans : Telemetry.span list;
}

(* Pipeline spans kept for the result, bounded in both depth and count
   and stripped of their args — a pathological compile must not balloon
   the result frame past the artifact it carries, nor the server's
   trace registry. *)
let bounded_spans (snap : Telemetry.snapshot) =
  let max_spans = 96 and max_depth = 2 in
  let depth = Hashtbl.create 32 in
  let kept = ref 0 in
  List.filter_map
    (fun (s : Telemetry.span) ->
      let d =
        match s.parent with
        | None -> 0
        | Some p -> (
            match Hashtbl.find_opt depth p with
            | Some d -> d + 1
            | None -> max_depth + 1)
      in
      Hashtbl.replace depth s.id d;
      if d > max_depth || !kept >= max_spans then None
      else begin
        incr kept;
        Some { s with args = [] }
      end)
    snap.spans

(* The artifact, or the compile's failure, and for a traced job the
   worker's timing.  Tracing never changes the artifact. *)
let worker_fn ?par_workers (job : Protocol.job) =
  match job.Protocol.trace_id with
  | None -> (Protocol.evaluate_job ?par_workers job, None)
  | Some _ ->
      let start_us = now_us () in
      let result, snap =
        Telemetry.capture (fun () -> Protocol.evaluate_job ?par_workers job)
      in
      ( result,
        Some
          {
            wk_start_us = start_us;
            wk_end_us = now_us ();
            wk_spans = bounded_spans snap;
          } )

(* ------------------------------------------------------------------ *)
(* Listeners                                                           *)

let bind_unix path =
  (match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | _ ->
      (* Replace the file only if nothing answers on it. *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        try
          Unix.connect probe (Unix.ADDR_UNIX path);
          true
        with Unix.Unix_error _ -> false
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if live then raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
      else Unix.unlink path);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let bind_tcp (host, port) =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          raise (Unix.Unix_error (Unix.EADDRNOTAVAIL, "bind", host))
      | h -> h.Unix.h_addr_list.(0)
      | exception Not_found ->
          raise (Unix.Unix_error (Unix.EADDRNOTAVAIL, "bind", host)))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  fd

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)

type client = { c_fd : Unix.file_descr; c_decoder : Frame.Decoder.t }

(* The one record of a submitted request: created when the submit
   arrives, parked on a pool ticket while its compile runs, and ended
   exactly once by [finish]. *)
type waiter = {
  w_fd : Unix.file_descr;  (** the client owed a response *)
  w_job : string;  (** the client's job id *)
  w_hit : bool;  (** coalesced onto an in-flight compile *)
  w_deadline : float option;  (** absolute wall-clock deadline *)
  w_trace : string;  (** effective trace id (client-supplied or assigned) *)
  w_submit_us : float;  (** server receive time, microseconds *)
}

(* How a request ends; each case is one terminal event kind. *)
type ending =
  | Hit of Minijson.t * string  (** cache_hit: artifact, tier memory|store *)
  | Delivered of (Minijson.t, string) result * worker_timing option
      (** deliver: its compile finished *)
  | Rejected of int  (** reject: admission refused it at this many pending *)
  | Deadline of string  (** deadline_miss, with the failure reason *)
  | Cancelled  (** cancel: its client cancelled it *)
  | Disconnected  (** disconnect: its client went away *)
  | Shutdown  (** shutdown: the server stopped first *)

type state = {
  cfg : config;
  pool :
    ( Protocol.job,
      (Minijson.t, string) result * worker_timing option )
    Exec.Pool.t;
  cache : Cache.t;
  clients : (Unix.file_descr, client) Hashtbl.t;
  waiters : (Exec.Pool.ticket, waiter list ref) Hashtbl.t;
  key_of : (Exec.Pool.ticket, string) Hashtbl.t;
  inflight : (string, Exec.Pool.ticket) Hashtbl.t;  (** cache key -> ticket *)
  metrics : Metrics.t;  (** windowed latency / queue-depth histograms *)
  traces : Metrics.Traces.t;  (** recent request traces, for [TRACE <id>] *)
  events_oc : out_channel option;  (** structured JSONL event log *)
  mutable trace_seq : int;  (** server-assigned trace-id counter *)
  mutable requests : int;  (** decoded requests of every op *)
  mutable jobs : int;  (** submits *)
  mutable connections_total : int;  (** accepted connections *)
  mutable served : int;
  mutable coalesced : int;
  mutable rejected : int;
  mutable deadline_misses : int;
  mutable shed_verify : int;  (** verify requests dropped by brown-out *)
  mutable degraded : int;  (** methods stepped down by brown-out *)
  scrub_intact : int;  (** startup store scrub results *)
  scrub_quarantined : int;
  mutable stop : string option;  (** [Some reason] ends the loop *)
  started : float;
}

let fresh_trace_id st =
  st.trace_seq <- st.trace_seq + 1;
  Printf.sprintf "t-%06x-%x" (Unix.getpid () land 0xFFFFFF) st.trace_seq

(* One JSONL line per request-lifecycle event; [trace_id] makes the log
   greppable against daemon log lines and [TRACE <id>] lookups. *)
let emit_event st ~event (w : waiter) fields =
  match st.events_oc with
  | None -> ()
  | Some oc ->
      output_string oc
        (Minijson.encode
           (Minijson.obj
              ([
                 ("ts_us", Minijson.float (now_us ()));
                 ("event", Minijson.str event);
                 ("trace_id", Minijson.str w.w_trace);
                 ("id", Minijson.str w.w_job);
               ]
              @ fields)));
      output_char oc '\n';
      flush oc

(* ------------------------------------------------------------------ *)
(* Trace assembly                                                      *)

(* Re-root the worker's spans under the exec span [under]: ids are
   renumbered from [first], parents remapped, and spans whose parent
   was trimmed are adopted by [under] directly. *)
let reroot ~under ~first spans =
  let ids = Hashtbl.create 16 in
  List.iteri
    (fun i (s : Telemetry.span) -> Hashtbl.replace ids s.id (first + i))
    spans;
  List.mapi
    (fun i (s : Telemetry.span) ->
      let parent =
        Option.value ~default:under (Option.bind s.parent (Hashtbl.find_opt ids))
      in
      { s with id = first + i; parent = Some parent })
    spans

(* One request's [gdp-trace/1] document.  A computed request gets
   queue, exec and deliver segments with the worker's spans under exec;
   a cache hit gets a [cache.<tier>] child; any other ending a lone
   request span. *)
let trace_doc w ~tier ~outcome ~now ending =
  let total = Float.max 0. (now -. w.w_submit_us) in
  let span id ?(parent = Some 0) name start_us dur_us =
    { Telemetry.id; parent; name; start_us; dur_us; args = [] }
  in
  let children, queue_us, exec_us =
    match ending with
    | Delivered (_, Some wk) ->
        let queue = Float.max 0. (wk.wk_start_us -. w.w_submit_us) in
        let exec = Float.max 0. (wk.wk_end_us -. wk.wk_start_us) in
        ( span 1 "queue" w.w_submit_us queue
          :: span 2 "exec" wk.wk_start_us exec
          :: span 3 "deliver" wk.wk_end_us (Float.max 0. (now -. wk.wk_end_us))
          :: reroot ~under:2 ~first:4 wk.wk_spans,
          queue,
          exec )
    | Hit (_, tier) -> ([ span 1 ("cache." ^ tier) w.w_submit_us total ], 0., 0.)
    | _ -> ([], 0., 0.)
  in
  let spans = span 0 ~parent:None "request" w.w_submit_us total :: children in
  Minijson.obj
    [
      ("schema", Minijson.str "gdp-trace/1");
      ("trace_id", Minijson.str w.w_trace);
      ("id", Minijson.str w.w_job);
      ("cache_tier", Minijson.str tier);
      ("outcome", Minijson.str outcome);
      ("start_us", Minijson.float w.w_submit_us);
      ("total_us", Minijson.float total);
      ("queue_us", Minijson.float queue_us);
      ("exec_us", Minijson.float exec_us);
      ("spans", Minijson.list (List.map Telemetry.span_to_json spans));
    ]

(* ------------------------------------------------------------------ *)
(* Ending requests                                                     *)

(* Remove and return every parked request that satisfies [p]. *)
let take_waiters st p =
  Hashtbl.fold
    (fun _ ws acc ->
      let taken, kept = List.partition p !ws in
      ws := kept;
      taken @ acc)
    st.waiters []

(* Cancel pool jobs whose last waiter is gone and drop their bookkeeping. *)
let reap_orphans st =
  let orphans =
    Hashtbl.fold (fun t ws acc -> if !ws = [] then t :: acc else acc) st.waiters []
  in
  List.iter
    (fun t ->
      Hashtbl.remove st.waiters t;
      (match Hashtbl.find_opt st.key_of t with
      | Some k ->
          Hashtbl.remove st.inflight k;
          Hashtbl.remove st.key_of t
      | None -> ());
      ignore (Exec.Pool.cancel st.pool t))
    orphans

(* Backpressure hint on a hard reject: roughly how long the backlog
   needs to move one slot, bounded to [50, 2000] ms. *)
let retry_after_hint st =
  let per_job_ms = 100 in
  let jobs = max 1 (Exec.clamp_jobs st.cfg.jobs) in
  let ms = Exec.Pool.pending st.pool * per_job_ms / jobs in
  Some (max 50 (min 2000 ms))

let rec send st fd resp =
  match
    Frame.write ~max_frame:st.cfg.max_frame fd (Protocol.response_to_json resp)
  with
  | () -> ()
  | exception Unix.Unix_error _ ->
      Log.debug (fun m -> m "dropping unreachable client");
      close_client st fd
  | exception Invalid_argument msg ->
      (* Response exceeds the frame bound; tell the client what happened
         if a small frame still fits, then give up on the job. *)
      Log.warn (fun m -> m "oversized response: %s" msg);
      send_error st fd msg

and send_error st fd msg =
  match
    Frame.write ~max_frame:st.cfg.max_frame fd
      (Protocol.response_to_json (Protocol.Error_reply msg))
  with
  | () -> ()
  | exception _ -> close_client st fd

(* A closed connection ends every request still parked for it. *)
and close_client st fd =
  if Hashtbl.mem st.clients fd then begin
    Hashtbl.remove st.clients fd;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    let gone = take_waiters st (fun w -> w.w_fd = fd) in
    reap_orphans st;
    List.iter (fun w -> finish st w Disconnected) gone
  end

(* End request [w], which its caller has already unparked: count the
   outcome, register the trace, record the latency, log the terminal
   event and answer the client if it is still connected — each exactly
   once.  A failed send closes the client, which ends its other
   requests, never this one again. *)
and finish st w ending =
  let now = now_us () in
  let total = Float.max 0. (now -. w.w_submit_us) in
  let event, outcome, tier =
    match ending with
    | Hit (_, tier) -> ("cache_hit", "ok", tier)
    | Delivered (result, _) ->
        ( "deliver",
          (match result with Ok _ -> "ok" | Error _ -> "failed"),
          if w.w_hit then "coalesced" else "compute" )
    | Rejected _ -> ("reject", "rejected", "none")
    | Deadline _ -> ("deadline_miss", "deadline_miss", "none")
    | Cancelled -> ("cancel", "cancelled", "none")
    | Disconnected -> ("disconnect", "disconnected", "none")
    | Shutdown -> ("shutdown", "shutdown", "none")
  in
  (match ending with
  | Hit _ | Delivered (Ok _, _) -> st.served <- st.served + 1
  | Rejected _ -> st.rejected <- st.rejected + 1
  | Deadline _ -> st.deadline_misses <- st.deadline_misses + 1
  | Delivered (Error _, _) | Cancelled | Disconnected | Shutdown -> ());
  let trace = trace_doc w ~tier ~outcome ~now ending in
  Metrics.Traces.add st.traces ~trace_id:w.w_trace trace;
  (* shed load must not flatter the latency percentiles *)
  Option.iter
    (fun method_ -> Metrics.observe_latency st.metrics ~method_ total)
    (match ending with
    | Hit _ -> Some "submit_hit"
    | Delivered _ -> Some "submit"
    | _ -> None);
  emit_event st ~event w
    ([
       ("outcome", Minijson.str outcome);
       ("tier", Minijson.str tier);
       ("total_us", Minijson.float total);
     ]
    @ match ending with Rejected n -> [ ("pending", Minijson.int n) ] | _ -> []);
  Log.debug (fun m ->
      m "[%s] %s %s (%s, %.0f us)" w.w_trace event w.w_job outcome total);
  let id = w.w_job and trace = Some trace in
  let failed reason retry_after_ms =
    Some (Protocol.Failed { id; reason; retry_after_ms; trace })
  in
  let response =
    match ending with
    | Hit (result, _) -> Some (Protocol.Result { id; cached = true; result; trace })
    | Delivered (Ok result, _) ->
        Some (Protocol.Result { id; cached = w.w_hit; result; trace })
    | Delivered (Error reason, _) -> failed reason None
    | Rejected n ->
        failed
          (Printf.sprintf "server overloaded (%d jobs pending)" n)
          (retry_after_hint st)
    | Deadline reason -> failed reason None
    | Shutdown -> failed "server shutting down" None
    | Cancelled -> Some (Protocol.Cancelled { id })
    | Disconnected -> None
  in
  match response with
  | Some r when Hashtbl.mem st.clients w.w_fd -> send st w.w_fd r
  | _ -> ()

(* Answer everyone waiting on a completed pool job. *)
let deliver st (c : _ Exec.Pool.completion) =
  let t = c.Exec.Pool.c_ticket in
  let ws =
    match Hashtbl.find_opt st.waiters t with Some ws -> !ws | None -> []
  in
  Hashtbl.remove st.waiters t;
  let key = Hashtbl.find_opt st.key_of t in
  Option.iter (Hashtbl.remove st.inflight) key;
  Hashtbl.remove st.key_of t;
  let result, timing =
    match c.Exec.Pool.c_result with
    | Ok compiled -> compiled
    | Error crash -> (Error crash, None)
  in
  (match (result, key) with
  | Ok art, Some k -> Cache.add st.cache k art
  | _ -> ());
  List.iter (fun w -> finish st w (Delivered (result, timing))) ws

let next_deadline st =
  Hashtbl.fold
    (fun _ ws acc ->
      List.fold_left
        (fun acc w ->
          match (w.w_deadline, acc) with
          | None, acc -> acc
          | Some d, None -> Some d
          | Some d, Some a -> Some (min d a))
        acc !ws)
    st.waiters None

let expire_deadlines st now =
  match
    take_waiters st (fun w ->
        match w.w_deadline with Some d -> d <= now | None -> false)
  with
  | [] -> ()
  | expired ->
      reap_orphans st;
      List.iter (fun w -> finish st w (Deadline "deadline exceeded")) expired

let fail_all st =
  let all = take_waiters st (fun _ -> true) in
  Hashtbl.reset st.waiters;
  Hashtbl.reset st.inflight;
  Hashtbl.reset st.key_of;
  List.iter (fun w -> finish st w Shutdown) all

(* Brown-out admission.  The pressure signal is pool pending over
   [max_pending]; [brownout] (a fraction of that capacity) opens three
   evenly spaced degradation levels between itself and the hard cap:

     level 1  shed verification      (the differential check is load)
     level 2  + method one step down the fallback chain
     level 3  + two steps down

   [brownout >= 1.0] disables brown-out: only the hard cap remains. *)
let admission_level st =
  if st.cfg.max_pending <= 0 || st.cfg.brownout >= 1.0 then 0
  else
    let frac =
      float_of_int (Exec.Pool.pending st.pool)
      /. float_of_int st.cfg.max_pending
    in
    let b = st.cfg.brownout in
    if frac < b then 0
    else
      let step = (1. -. b) /. 3. in
      if frac >= b +. (2. *. step) then 3
      else if frac >= b +. step then 2
      else 1

(* Step the requested method down the graceful-degradation ladder,
   never past Naive: Unified drops data partitioning entirely, which is
   a result-quality cliff brown-out must not jump off. *)
let degrade_method m steps =
  let chain =
    List.filter
      (fun x -> x <> Partition.Methods.Unified)
      (Partition.Methods.fallback_chain m)
  in
  let rec nth_or_last l n =
    match l with
    | [] -> m
    | [ x ] -> x
    | x :: rest -> if n <= 0 then x else nth_or_last rest (n - 1)
  in
  nth_or_last chain steps

let stats_json st =
  let h = Exec.Pool.health st.pool in
  Minijson.obj
    ([
       ("schema", Minijson.str "gdp-service-stats/1");
       ("uptime_s", Minijson.float (Unix.gettimeofday () -. st.started));
       ("requests", Minijson.int st.requests);
       ("jobs", Minijson.int st.jobs);
       ("connections_total", Minijson.int st.connections_total);
       ("served", Minijson.int st.served);
       ("coalesced", Minijson.int st.coalesced);
       ("rejected", Minijson.int st.rejected);
       ("deadline_misses", Minijson.int st.deadline_misses);
       ( "admission",
         Minijson.obj
           [
             ("max_pending", Minijson.int st.cfg.max_pending);
             ("brownout", Minijson.float st.cfg.brownout);
             ("level", Minijson.int (admission_level st));
             ("shed_verify", Minijson.int st.shed_verify);
             ("degraded", Minijson.int st.degraded);
           ] );
       ( "pool",
         Minijson.obj
           [
             ("workers", Minijson.int h.Exec.Pool.h_workers);
             ("alive", Minijson.int h.Exec.Pool.h_alive);
             ("queued", Minijson.int (Exec.Pool.queued st.pool));
             ("in_flight", Minijson.int (Exec.Pool.in_flight st.pool));
             ("crashes", Minijson.int h.Exec.Pool.h_crashes);
             ("respawns", Minijson.int h.Exec.Pool.h_respawns);
             ("poisoned", Minijson.int h.Exec.Pool.h_poisoned);
           ] );
       ("cache", Cache.stats_to_json (Cache.stats st.cache));
     ]
    @
    match Cache.store st.cache with
    | None -> []
    | Some s ->
        [
          ( "store",
            match Store.stats_to_json (Store.stats s) with
            | Minijson.Obj fields ->
                Minijson.Obj
                  (fields
                  @ [
                      ("scrub_intact", Minijson.int st.scrub_intact);
                      ( "scrub_quarantined",
                        Minijson.int st.scrub_quarantined );
                    ])
            | other -> other );
        ])

let health_json st =
  let h = Exec.Pool.health st.pool in
  Minijson.obj
    [
      ("schema", Minijson.str "gdp-health/1");
      ( "status",
        Minijson.str (if h.Exec.Pool.h_alive > 0 then "ok" else "degraded") );
      ("uptime_s", Minijson.float (Unix.gettimeofday () -. st.started));
      ( "workers",
        Minijson.obj
          [
            ("configured", Minijson.int h.Exec.Pool.h_workers);
            ("alive", Minijson.int h.Exec.Pool.h_alive);
            ("poisoned", Minijson.int h.Exec.Pool.h_poisoned);
            ("crashes", Minijson.int h.Exec.Pool.h_crashes);
            ("respawns", Minijson.int h.Exec.Pool.h_respawns);
          ] );
      ("pending", Minijson.int (Exec.Pool.pending st.pool));
      ("admission_level", Minijson.int (admission_level st));
      ("connections", Minijson.int (Hashtbl.length st.clients));
      ("traces_retained", Minijson.int (Metrics.Traces.length st.traces));
    ]

(* The point-in-time scalars the metrics plane renders next to its
   windowed histograms — the daemon's lifetime counters and current
   gauges, sampled at request time. *)
let metric_points st =
  let cs = Cache.stats st.cache in
  let h = Exec.Pool.health st.pool in
  [
    Metrics.Counter ("requests_total", st.requests);
    Metrics.Counter ("jobs_total", st.jobs);
    Metrics.Counter ("connections_total", st.connections_total);
    Metrics.Counter ("served_total", st.served);
    Metrics.Counter ("coalesced_total", st.coalesced);
    Metrics.Counter ("rejected_total", st.rejected);
    Metrics.Counter ("deadline_misses_total", st.deadline_misses);
    Metrics.Counter ("shed_verify_total", st.shed_verify);
    Metrics.Counter ("degraded_total", st.degraded);
    Metrics.Counter ("cache_hits_total", cs.Cache.hits);
    Metrics.Counter ("cache_warm_hits_total", cs.Cache.warm_hits);
    Metrics.Counter ("cache_misses_total", cs.Cache.misses);
    Metrics.Counter ("cache_evictions_total", cs.Cache.evictions);
    Metrics.Counter ("worker_crashes_total", h.Exec.Pool.h_crashes);
    Metrics.Counter ("worker_respawns_total", h.Exec.Pool.h_respawns);
    Metrics.Counter ("workers_poisoned_total", h.Exec.Pool.h_poisoned);
    Metrics.Counter ("traces_recorded_total", Metrics.Traces.total st.traces);
    Metrics.Gauge ("workers_alive", float_of_int h.Exec.Pool.h_alive);
    Metrics.Gauge ("pool_pending", float_of_int (Exec.Pool.pending st.pool));
    Metrics.Gauge ("connections", float_of_int (Hashtbl.length st.clients));
    Metrics.Gauge ("cache_entries", float_of_int cs.Cache.entries);
    Metrics.Gauge ("admission_level", float_of_int (admission_level st));
    Metrics.Gauge ("uptime_s", Unix.gettimeofday () -. st.started);
  ]

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

(* Apply the current brown-out level to an incoming job.  The degraded
   job has its own settings, hence its own cache key — a degraded
   artifact can never be served to a full-quality request later. *)
let apply_brownout st (job : Protocol.job) =
  match admission_level st with
  | 0 -> job
  | level ->
      let job =
        if job.Protocol.verify then begin
          st.shed_verify <- st.shed_verify + 1;
          { job with Protocol.verify = false }
        end
        else job
      in
      let steps = level - 1 in
      if steps = 0 then job
      else
        let settings = job.Protocol.settings in
        let m = settings.Pipeline.Settings.method_ in
        let m' = degrade_method m steps in
        if m' = m then job
        else begin
          st.degraded <- st.degraded + 1;
          Log.info (fun m_ ->
              m_ "brown-out level %d: degrading %s from %s to %s" level
                job.Protocol.id
                (Partition.Methods.to_string m)
                (Partition.Methods.to_string m'));
          {
            job with
            Protocol.settings = { settings with Pipeline.Settings.method_ = m' };
          }
        end

let handle_submit st (cl : client) (job : Protocol.job) =
  st.jobs <- st.jobs + 1;
  let trace_id =
    match job.Protocol.trace_id with Some t -> t | None -> fresh_trace_id st
  in
  (* The worker payload always carries the effective id, so the worker
     knows to record its pipeline spans; the cache key never sees it. *)
  let job = { job with Protocol.trace_id = Some trace_id } in
  let w =
    {
      w_fd = cl.c_fd;
      w_job = job.Protocol.id;
      w_hit = false;
      w_deadline =
        Option.map
          (fun d -> Unix.gettimeofday () +. (float_of_int d /. 1000.))
          job.Protocol.deadline_ms;
      w_trace = trace_id;
      w_submit_us = now_us ();
    }
  in
  emit_event st ~event:"submit" w [];
  Log.debug (fun m -> m "[%s] submit %s" trace_id w.w_job);
  match job.Protocol.deadline_ms with
  | Some d when d <= 0 ->
      finish st w
        (Deadline (Printf.sprintf "deadline exceeded (deadline_ms = %d)" d))
  | _ -> (
      let job = apply_brownout st job in
      let key = Protocol.cache_key job in
      match Cache.find_tier st.cache key with
      | Some (artifact, tier) ->
          finish st w
            (Hit (artifact, match tier with `Memory -> "memory" | `Store -> "store"))
      | None -> (
          match Hashtbl.find_opt st.inflight key with
          | Some t ->
              (* identical job already compiling: coalesce onto it *)
              st.coalesced <- st.coalesced + 1;
              emit_event st ~event:"coalesce" w [];
              let ws = Hashtbl.find st.waiters t in
              ws := !ws @ [ { w with w_hit = true } ]
          | None ->
              let pending = Exec.Pool.pending st.pool in
              if pending >= st.cfg.max_pending then finish st w (Rejected pending)
              else begin
                Metrics.observe_queue_depth st.metrics pending;
                let t = Exec.Pool.submit st.pool ~batch:key job in
                emit_event st ~event:"dispatch" w [];
                Hashtbl.replace st.inflight key t;
                Hashtbl.replace st.key_of t key;
                Hashtbl.replace st.waiters t (ref [ w ])
              end))

(* A cancel ends each of the caller's parked requests with that id,
   answering each [cancelled]; an id with none parked is a per-job
   failure that ends no request. *)
let handle_cancel st (cl : client) id =
  match take_waiters st (fun w -> w.w_fd = cl.c_fd && w.w_job = id) with
  | [] ->
      send st cl.c_fd
        (Protocol.Failed
           { id; reason = "unknown job id"; retry_after_ms = None; trace = None })
  | mine ->
      reap_orphans st;
      List.iter (fun w -> finish st w Cancelled) mine

let handle_request st (cl : client) req =
  st.requests <- st.requests + 1;
  let t0 = now_us () in
  let observe m = Metrics.observe_latency st.metrics ~method_:m (now_us () -. t0) in
  match req with
  | Protocol.Submit job ->
      (* submit latency is observed when the response goes out (cache
         hit / rejection here, compute at [deliver]) *)
      handle_submit st cl job
  | Protocol.Cancel { id } ->
      handle_cancel st cl id;
      observe "cancel"
  | Protocol.Ping ->
      send st cl.c_fd Protocol.Pong;
      observe "ping"
  | Protocol.Stats ->
      send st cl.c_fd (Protocol.Stats_reply (stats_json st));
      observe "stats"
  | Protocol.Health ->
      send st cl.c_fd (Protocol.Health_reply (health_json st));
      observe "health"
  | Protocol.Trace { trace_id } ->
      (match Metrics.Traces.find st.traces trace_id with
      | Some doc -> send st cl.c_fd (Protocol.Trace_reply doc)
      | None -> send_error st cl.c_fd ("unknown trace id: " ^ trace_id));
      observe "trace"
  | Protocol.Metrics fmt ->
      (match fmt with
      | Protocol.Json ->
          send st cl.c_fd
            (Protocol.Metrics_reply (Metrics.to_json st.metrics (metric_points st)))
      | Protocol.Prometheus ->
          send st cl.c_fd
            (Protocol.Metrics_text_reply
               (Metrics.to_prometheus st.metrics (metric_points st))));
      observe "metrics"
  | Protocol.Shutdown ->
      send st cl.c_fd Protocol.Shutting_down;
      st.stop <- Some "shutdown request"

let rec drain_frames st (cl : client) =
  if Hashtbl.mem st.clients cl.c_fd then
    match Frame.Decoder.next cl.c_decoder with
    | `Awaiting -> ()
    | `Error e ->
        send_error st cl.c_fd (Frame.error_to_string e);
        close_client st cl.c_fd
    | `Frame doc ->
        (match Protocol.request_of_json doc with
        | Error m -> send_error st cl.c_fd m
        | Ok req -> handle_request st cl req);
        drain_frames st cl

let read_buf = Bytes.create 65536

let handle_readable st (cl : client) =
  match Unix.read cl.c_fd read_buf 0 (Bytes.length read_buf) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_client st cl.c_fd
  | 0 -> close_client st cl.c_fd
  | n ->
      Frame.Decoder.feed cl.c_decoder read_buf 0 n;
      drain_frames st cl

let accept_client st lfd =
  match Unix.accept lfd with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | fd, _addr ->
      let cl = { c_fd = fd; c_decoder = Frame.Decoder.create ~max_frame:st.cfg.max_frame () } in
      Hashtbl.replace st.clients fd cl;
      st.connections_total <- st.connections_total + 1

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)

let stop_flag = ref false

let loop st listeners =
  while st.stop = None && not !stop_flag do
    (* dispatch queued jobs / collect finished ones without blocking *)
    List.iter (deliver st) (Exec.Pool.poll ~timeout:0. st.pool);
    (* chaos: SIGKILL a busy worker mid-compile.  Occurrences are
       counted only while work is in flight, so "@3*" means "every
       third busy tick", not "every third idle wakeup". *)
    if
      Exec.Pool.in_flight st.pool > 0
      && Fault.fire "service.worker.kill"
      && Exec.Pool.chaos_kill st.pool (Fault.rand "service.worker.kill" 64)
    then Log.warn (fun m -> m "chaos: killed a busy worker");
    let now = Unix.gettimeofday () in
    expire_deadlines st now;
    let timeout =
      match next_deadline st with
      | Some d -> Float.max 0. (Float.min 0.5 (d -. now))
      | None -> 0.5
    in
    let client_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) st.clients [] in
    let watch = listeners @ client_fds @ Exec.Pool.result_fds st.pool in
    match Unix.select watch [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if List.mem fd listeners then accept_client st fd
            else
              match Hashtbl.find_opt st.clients fd with
              | Some cl -> handle_readable st cl
              | None -> () (* a pool fd: collected at the top of the loop *))
          readable
  done;
  let reason =
    match st.stop with Some r -> r | None -> "signal" in
  Log.info (fun m -> m "shutting down (%s)" reason);
  fail_all st

let run cfg =
  if cfg.socket_path = None && cfg.tcp = None then
    invalid_arg "Server.run: no listener configured (socket_path or tcp)";
  if cfg.trace <> None then Telemetry.enable ();
  stop_flag := false;
  (* Arm server-side chaos before anything that hosts an injection
     point (the store's corrupt hook, the loop's worker killer). *)
  let inject_seed =
    match cfg.inject with
    | None ->
        Fault.disarm ();
        0
    | Some (spec, seed) -> (
        match Fault.parse_spec spec with
        | Error m -> invalid_arg ("Server.run: bad inject spec: " ^ m)
        | Ok s ->
            Fault.arm ~seed s;
            Log.info (fun f -> f "chaos armed: %a (seed %d)" Fault.pp_spec s seed);
            seed)
  in
  let listeners =
    (match cfg.socket_path with Some p -> [ bind_unix p ] | None -> [])
    @ match cfg.tcp with Some hp -> [ bind_tcp hp ] | None -> []
  in
  let pool =
    Exec.Pool.create ~jobs:cfg.jobs ~max_retries:2 ~retry_backoff:0.02
      ~respawn_backoff:0.02 ~poison_threshold:4 ~backoff_seed:inject_seed
      ~worker:(worker_fn ?par_workers:cfg.par_workers)
      ()
  in
  let store, scrub_intact, scrub_quarantined =
    match cfg.store_dir with
    | None -> (None, 0, 0)
    | Some d ->
        let s = Store.open_ d in
        let intact, bad = Store.scrub s in
        Log.info (fun m ->
            m "store scrub: %d intact, %d quarantined (%s)" intact bad d);
        (Some s, intact, bad)
  in
  let cache = Cache.create ~capacity:cfg.cache_capacity ?store () in
  let events_oc =
    Option.map
      (fun p -> open_out_gen [ Open_creat; Open_trunc; Open_wronly ] 0o644 p)
      cfg.events
  in
  let st =
    {
      cfg;
      pool;
      cache;
      clients = Hashtbl.create 16;
      waiters = Hashtbl.create 16;
      key_of = Hashtbl.create 16;
      inflight = Hashtbl.create 16;
      metrics = Metrics.create ();
      traces = Metrics.Traces.create ();
      events_oc;
      trace_seq = 0;
      requests = 0;
      jobs = 0;
      connections_total = 0;
      served = 0;
      coalesced = 0;
      rejected = 0;
      deadline_misses = 0;
      shed_verify = 0;
      degraded = 0;
      scrub_intact;
      scrub_quarantined;
      stop = None;
      started = Unix.gettimeofday ();
    }
  in
  let on_signal = Sys.Signal_handle (fun _ -> stop_flag := true) in
  let old_term = Sys.signal Sys.sigterm on_signal in
  let old_int = Sys.signal Sys.sigint on_signal in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int;
      Exec.Pool.shutdown pool;
      Hashtbl.iter
        (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
        st.clients;
      Hashtbl.reset st.clients;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        listeners;
      (match cfg.socket_path with
      | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
      | None -> ());
      (match events_oc with
      | Some oc -> ( try close_out oc with Sys_error _ -> ())
      | None -> ());
      match cfg.trace with
      | Some path ->
          Telemetry.Sink.write_chrome_trace path (Telemetry.snapshot ())
      | None -> ())
    (fun () ->
      Log.info (fun m ->
          m "gdpcd listening%s%s"
            (match cfg.socket_path with
            | Some p -> " on " ^ p
            | None -> "")
            (match cfg.tcp with
            | Some (h, p) -> Printf.sprintf " and %s:%d" h p
            | None -> ""));
      loop st listeners)
