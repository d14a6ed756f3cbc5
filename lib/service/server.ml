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

(* Whole microseconds, like telemetry's default clock, so every time
   in a trace document prints as an integer. *)
let now_us () = Float.round (Unix.gettimeofday () *. 1e6)

(* What a traced worker reports beside its result: its own wall-clock
   start and end (same machine as the server, so the server can derive
   queue and exec segments) and the pipeline spans it recorded. *)
type worker_timing = {
  wk_start_us : float;
  wk_end_us : float;
  wk_spans : Telemetry.span list;
}

(* A traced worker records the pipeline's stages, the roots its
   compile opens and their children, and nothing deeper: the graph
   partitioner alone opens a span per coarsening and refinement level. *)
let trace_depth = 1

(* Pipeline spans kept for the result, bounded in count and stripped of
   their args — a pathological compile must not balloon the result
   frame past the artifact it carries, nor the server's trace
   registry.  Spans come in start order, so a kept span's parent is
   kept too. *)
let bounded_spans (snap : Telemetry.snapshot) =
  let max_spans = 96 in
  List.filteri (fun i _ -> i < max_spans) snap.spans
  |> List.map (fun (s : Telemetry.span) -> { s with args = [] })

(* The artifact, or the compile's failure, and for a traced job the
   worker's timing.  Tracing never changes the artifact. *)
let worker_fn ?par_workers (job : Protocol.job) =
  match job.Protocol.trace_id with
  | None -> (Protocol.evaluate_job ?par_workers job, None)
  | Some _ ->
      let start_us = now_us () in
      let result, snap =
        Telemetry.capture ~max_depth:trace_depth (fun () ->
            Protocol.evaluate_job ?par_workers job)
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
  w_tier : string;
      (** ["compute"] once dispatched to the pool, ["coalesced"] once
          parked on an identical in-flight compile, else ["none"] *)
  w_deadline : float option;  (** absolute wall-clock deadline *)
  w_trace : string;  (** effective trace id (client-supplied or assigned) *)
  w_submit_us : float;  (** server receive time, microseconds *)
}

(* How a request ends. *)
type ending =
  | Hit of Minijson.t * string  (** served from the cache tier memory|store *)
  | Delivered of (Minijson.t, string) result * worker_timing option
      (** its compile finished *)
  | Rejected of int  (** admission refused it at this many pending *)
  | Deadline of string  (** its deadline passed, with the failure reason *)
  | Cancelled  (** its client cancelled it *)
  | Disconnected  (** its client went away *)
  | Shutdown  (** the server stopped first *)

(* One pool ticket's compile: its cache key and the requests parked on
   it, in arrival order. *)
type flight = { key : string; mutable waiters : waiter list }

type state = {
  cfg : config;
  pool :
    ( Protocol.job,
      (Minijson.t, string) result * worker_timing option )
    Exec.Pool.t;
  cache : Cache.t;
  clients : (Unix.file_descr, client) Hashtbl.t;
  flights : (Exec.Pool.ticket, flight) Hashtbl.t;
  inflight : (string, Exec.Pool.ticket) Hashtbl.t;  (** cache key -> ticket *)
  metrics : Metrics.t;  (** windowed latency / queue-depth histograms *)
  traces : Metrics.Traces.t;  (** recent request traces, for [TRACE <id>] *)
  events_oc : out_channel option;  (** each request's trace record, a line each *)
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
    (fun _ f acc ->
      let taken, kept = List.partition p f.waiters in
      f.waiters <- kept;
      taken @ acc)
    st.flights []

(* Forget a ticket's compile. *)
let land_flight st t f =
  Hashtbl.remove st.flights t;
  Hashtbl.remove st.inflight f.key

(* Cancel pool jobs whose last waiter is gone and forget them. *)
let reap_orphans st =
  let orphans =
    Hashtbl.fold
      (fun t f acc -> if f.waiters = [] then (t, f) :: acc else acc)
      st.flights []
  in
  List.iter
    (fun (t, f) ->
      land_flight st t f;
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
  match Frame.write fd (Protocol.response_to_json resp) with
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
  match Frame.write fd (Protocol.response_to_json (Protocol.Error_reply msg)) with
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
   outcome, register the trace record, record the latency, append the
   record to the event log and answer the client if it is still
   connected — each exactly once.  A failed send closes the client,
   which ends its other requests, never this one again. *)
and finish st w ending =
  let now = now_us () in
  let tier = match ending with Hit (_, tier) -> tier | _ -> w.w_tier in
  let outcome =
    match ending with
    | Hit _ | Delivered (Ok _, _) -> "ok"
    | Delivered (Error _, _) -> "failed"
    | Rejected _ -> "rejected"
    | Deadline _ -> "deadline_miss"
    | Cancelled -> "cancelled"
    | Disconnected -> "disconnected"
    | Shutdown -> "shutdown"
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
    (fun method_ ->
      Metrics.observe_latency st.metrics ~method_
        (Float.max 0. (now -. w.w_submit_us)))
    (match ending with
    | Hit _ -> Some "submit_hit"
    | Delivered _ -> Some "submit"
    | _ -> None);
  Option.iter
    (fun oc ->
      output_string oc (Minijson.encode trace);
      output_char oc '\n';
      flush oc)
    st.events_oc;
  Log.debug (fun m -> m "[%s] %s %s via %s" w.w_trace w.w_job outcome tier);
  let id = w.w_job and trace = Some trace in
  let failed reason retry_after_ms =
    Some (Protocol.Failed { id; reason; retry_after_ms; trace })
  in
  let response =
    match ending with
    | Hit (result, _) -> Some (Protocol.Result { id; cached = true; result; trace })
    | Delivered (Ok result, _) ->
        let cached = w.w_tier = "coalesced" in
        Some (Protocol.Result { id; cached; result; trace })
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
  match Hashtbl.find_opt st.flights t with
  | None -> ()
  | Some f ->
      land_flight st t f;
      let result, timing =
        match c.Exec.Pool.c_result with
        | Ok compiled -> compiled
        | Error crash -> (Error crash, None)
      in
      Result.iter (Cache.add st.cache f.key) result;
      List.iter (fun w -> finish st w (Delivered (result, timing))) f.waiters

let next_deadline st =
  Hashtbl.fold
    (fun _ f acc ->
      List.fold_left
        (fun acc w ->
          match (w.w_deadline, acc) with
          | None, acc -> acc
          | Some d, None -> Some d
          | Some d, Some a -> Some (min d a))
        acc f.waiters)
    st.flights None

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
  Hashtbl.reset st.flights;
  Hashtbl.reset st.inflight;
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

(* Every counter and gauge the daemon reports, each named once: its
   path in the [stats] document, its metrics-plane kind and name where
   it has one, and its reading.  [stats], the [gdp-metrics/1] document
   and the Prometheus exposition all render from this list.  The
   store's entries read [None], and are left out, without a store. *)
let scalars :
    (string * (Metrics.kind * string) option * (state -> float option)) list =
  let n f st = Some (float_of_int (f st)) in
  let pool f = n (fun st -> f (Exec.Pool.health st.pool)) in
  let cache f = n (fun st -> f (Cache.stats st.cache)) in
  let with_store f st =
    Option.map (fun s -> float_of_int (f st s)) (Cache.store st.cache)
  in
  let store f = with_store (fun _ s -> f (Store.stats s)) in
  let scrub f = with_store (fun st _ -> f st) in
  let c name = Some (Metrics.Counter, name) in
  let g name = Some (Metrics.Gauge, name) in
  [
    ("uptime_s", g "uptime_s", fun st -> Some (Unix.gettimeofday () -. st.started));
    ("requests", c "requests_total", n (fun st -> st.requests));
    ("jobs", c "jobs_total", n (fun st -> st.jobs));
    ("connections", g "connections", n (fun st -> Hashtbl.length st.clients));
    ("connections_total", c "connections_total", n (fun st -> st.connections_total));
    ("served", c "served_total", n (fun st -> st.served));
    ("coalesced", c "coalesced_total", n (fun st -> st.coalesced));
    ("rejected", c "rejected_total", n (fun st -> st.rejected));
    ("deadline_misses", c "deadline_misses_total", n (fun st -> st.deadline_misses));
    ("admission.max_pending", None, n (fun st -> st.cfg.max_pending));
    ("admission.brownout", None, fun st -> Some st.cfg.brownout);
    ("admission.level", g "admission_level", n admission_level);
    ("admission.shed_verify", c "shed_verify_total", n (fun st -> st.shed_verify));
    ("admission.degraded", c "degraded_total", n (fun st -> st.degraded));
    ("pool.workers", None, pool (fun h -> h.Exec.Pool.h_workers));
    ("pool.alive", g "workers_alive", pool (fun h -> h.Exec.Pool.h_alive));
    ("pool.pending", g "pool_pending", n (fun st -> Exec.Pool.pending st.pool));
    ("pool.queued", None, n (fun st -> Exec.Pool.queued st.pool));
    ("pool.in_flight", None, n (fun st -> Exec.Pool.in_flight st.pool));
    ("pool.crashes", c "worker_crashes_total", pool (fun h -> h.Exec.Pool.h_crashes));
    ( "pool.respawns", c "worker_respawns_total",
      pool (fun h -> h.Exec.Pool.h_respawns) );
    ( "pool.poisoned", c "workers_poisoned_total",
      pool (fun h -> h.Exec.Pool.h_poisoned) );
    ("cache.hits", c "cache_hits_total", cache (fun s -> s.Cache.hits));
    ("cache.misses", c "cache_misses_total", cache (fun s -> s.Cache.misses));
    ("cache.warm_hits", c "cache_warm_hits_total", cache (fun s -> s.Cache.warm_hits));
    ("cache.evictions", c "cache_evictions_total", cache (fun s -> s.Cache.evictions));
    ("cache.entries", g "cache_entries", cache (fun s -> s.Cache.entries));
    ("cache.capacity", None, cache (fun s -> s.Cache.cap));
    ("traces.retained", None, n (fun st -> Metrics.Traces.length st.traces));
    ( "traces.recorded", c "traces_recorded_total",
      n (fun st -> Metrics.Traces.total st.traces) );
    ("store.entries", None, store (fun s -> s.Store.entries));
    ("store.writes", None, store (fun s -> s.Store.writes));
    ("store.warm_hits", None, store (fun s -> s.Store.warm_hits));
    ("store.quarantined", None, store (fun s -> s.Store.quarantined));
    ("store.scrub_intact", None, scrub (fun st -> st.scrub_intact));
    ("store.scrub_quarantined", None, scrub (fun st -> st.scrub_quarantined));
  ]

(* Nest dotted paths ("pool.crashes") into objects, each group where its
   first member stands. *)
let rec nest = function
  | [] -> []
  | (path, v) :: rest -> (
      match String.index_opt path '.' with
      | None -> (path, v) :: nest rest
      | Some i ->
          let group = String.sub path 0 i in
          let under (p, _) = String.starts_with ~prefix:(group ^ ".") p in
          let inside, rest = List.partition under rest in
          let drop (p, v) = (String.sub p (i + 1) (String.length p - i - 1), v) in
          (group, Minijson.obj (nest (List.map drop ((path, v) :: inside))))
          :: nest rest)

let stats_json st =
  let reading (path, _, read) =
    Option.map (fun v -> (path, Minijson.float v)) (read st)
  in
  Minijson.obj
    (("schema", Minijson.str "gdp-service-stats/1")
    :: nest (List.filter_map reading scalars))

let metric_scalars st =
  List.filter_map
    (function
      | _, Some (kind, name), read -> Option.map (fun v -> (kind, name, v)) (read st)
      | _, None, _ -> None)
    scalars

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
      w_tier = "none";
      w_deadline =
        Option.map
          (fun d -> Unix.gettimeofday () +. (float_of_int d /. 1000.))
          job.Protocol.deadline_ms;
      w_trace = trace_id;
      w_submit_us = now_us ();
    }
  in
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
              let f = Hashtbl.find st.flights t in
              f.waiters <- f.waiters @ [ { w with w_tier = "coalesced" } ]
          | None ->
              let pending = Exec.Pool.pending st.pool in
              if pending >= st.cfg.max_pending then finish st w (Rejected pending)
              else begin
                Metrics.observe_queue_depth st.metrics pending;
                let t = Exec.Pool.submit st.pool ~batch:key job in
                Hashtbl.replace st.inflight key t;
                Hashtbl.replace st.flights t
                  { key; waiters = [ { w with w_tier = "compute" } ] }
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
  | Protocol.Trace { trace_id } ->
      (match Metrics.Traces.find st.traces trace_id with
      | Some doc -> send st cl.c_fd (Protocol.Trace_reply doc)
      | None -> send_error st cl.c_fd ("unknown trace id: " ^ trace_id));
      observe "trace"
  | Protocol.Metrics fmt ->
      (match fmt with
      | Protocol.Json ->
          send st cl.c_fd
            (Protocol.Metrics_reply (Metrics.to_json st.metrics (metric_scalars st)))
      | Protocol.Prometheus ->
          send st cl.c_fd
            (Protocol.Metrics_text_reply
               (Metrics.to_prometheus st.metrics (metric_scalars st))));
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
      let cl = { c_fd = fd; c_decoder = Frame.Decoder.create () } in
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
      flights = Hashtbl.create 16;
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
