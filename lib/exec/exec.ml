(** Process-pool job executor (see exec.mli).

    The parent and each worker speak a lockstep request/response
    protocol over a pair of pipes: the parent writes one job frame
    (newline-terminated compact JSON), the worker writes exactly one
    result frame back.  One job is outstanding per worker at a time, so
    a readable descriptor always corresponds to (the start of) the one
    pending response line.

    All pipe I/O goes through raw file descriptors with explicit
    [EINTR] retry and partial-read/-write loops — the daemon built on
    [Pool] installs signal handlers, so every read and write here must
    survive interruption.  Buffered [in_channel]/[out_channel] pairs are
    deliberately not used. *)

let src = Logs.Src.create "exec" ~doc:"process-pool executor"

module Log = (val Logs.src_log src : Logs.LOG)

type job = { payload : Minijson.t; batch : string }

let job ?(batch = "") payload = { payload; batch }
let clamp_jobs n = max 1 (min 64 n)

(* ------------------------------------------------------------------ *)
(* EINTR-hardened descriptor I/O                                       *)

(* Write the whole substring, restarting on [EINTR] and resuming after
   partial writes (a pipe accepts PIPE_BUF bytes atomically, but our
   frames can be larger than that). *)
let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

(* One [read], restarted on [EINTR].  Returns 0 at end of file. *)
let rec read_once fd buf =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_once fd buf

(* Take the first complete line out of [buf] (without its newline),
   leaving any following bytes in place.  [None] when no newline has
   arrived yet. *)
let take_line (buf : Buffer.t) : string option =
  let s = Buffer.contents buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear buf;
      Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)

(* Blocking line read: accumulate chunks until a newline shows up.
   [None] means the peer closed the descriptor mid-line or between
   lines.  Unix errors other than [EINTR] propagate to the caller
   (which treats them like a crash/EOF). *)
let rec read_line_fd fd rdbuf chunk : string option =
  match take_line rdbuf with
  | Some line -> Some line
  | None ->
      let n = read_once fd chunk in
      if n = 0 then None
      else begin
        Buffer.add_subbytes rdbuf chunk 0 n;
        read_line_fd fd rdbuf chunk
      end

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)

let job_schema = "gdp-job/1"
let result_schema = "gdp-result/1"

let encode_request idx payload =
  Minijson.(
    encode
      (obj [ ("schema", str job_schema); ("id", int idx); ("payload", payload) ]))

let encode_result idx (r : (Minijson.t, string) result) =
  let fields =
    match r with
    | Ok v -> [ ("schema", Minijson.str result_schema); ("id", Minijson.int idx); ("ok", v) ]
    | Error m ->
        [ ("schema", Minijson.str result_schema);
          ("id", Minijson.int idx);
          ("error", Minijson.str m)
        ]
  in
  match Minijson.encode (Minijson.obj fields) with
  | s -> s
  | exception Invalid_argument m ->
      (* non-finite number in the worker's result: downgrade to a job
         error rather than killing the worker *)
      Minijson.(
        encode
          (obj
             [ ("schema", str result_schema);
               ("id", int idx);
               ("error", str ("unencodable result: " ^ m))
             ]))

(* [Ok (id, per_job_result)] or [Error msg] when the frame itself is
   broken (which the parent treats as a worker crash). *)
let decode_result line =
  match Minijson.parse line with
  | Error msg -> Error ("unparseable result frame: " ^ msg)
  | Ok doc -> (
      let field name = Minijson.member name doc in
      if Option.bind (field "schema") Minijson.to_string <> Some result_schema
      then Error "result frame with wrong schema"
      else
        match Option.bind (field "id") Minijson.to_int with
        | None -> Error "result frame without id"
        | Some id -> (
            match field "error" with
            | Some e -> (
                match Minijson.to_string e with
                | Some msg -> Ok (id, Error msg)
                | None -> Error "result frame with non-string error")
            | None -> (
                match field "ok" with
                | Some v -> Ok (id, Ok v)
                | None -> Error "result frame without ok or error")))

(* ------------------------------------------------------------------ *)
(* Worker (child) side                                                 *)

let run_one worker idx payload =
  match worker payload with
  | v -> encode_result idx (Ok v)
  | exception e -> encode_result idx (Error (Printexc.to_string e))

(* Never returns: serves jobs until the parent closes the pipe. *)
let child_loop ~worker ~setup in_fd out_fd =
  (try
     setup ();
     let rdbuf = Buffer.create 4096 and chunk = Bytes.create 65536 in
     let rec loop () =
       match read_line_fd in_fd rdbuf chunk with
       | None -> ()
       | Some line ->
           let response =
             match Minijson.parse line with
             | Error msg ->
                 encode_result (-1) (Error ("unparseable job frame: " ^ msg))
             | Ok doc -> (
                 let idx =
                   Option.bind (Minijson.member "id" doc) Minijson.to_int
                 in
                 match (idx, Minijson.member "payload" doc) with
                 | Some idx, Some payload -> run_one worker idx payload
                 | _ -> encode_result (-1) (Error "malformed job frame"))
           in
           let out = response ^ "\n" in
           write_all out_fd out 0 (String.length out);
           loop ()
     in
     loop ()
   with _ -> ());
  (* _exit, not exit: at-exit hooks and buffered output inherited from
     the parent must not run/flush twice *)
  Unix._exit 0

(* ------------------------------------------------------------------ *)
(* Parent side: the persistent pool                                    *)

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stop %d" n

let rec waitpid_retry flags pid =
  match Unix.waitpid flags pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

(* Fork one worker.  [parent_fds] are the parent-side descriptors of
   every other live worker: the child must close them, or a dead
   parent-side write end would be held open by siblings and workers
   would never see EOF on shutdown. *)
let spawn ~worker ~setup ~parent_fds =
  let job_r, job_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  (* anything buffered pre-fork would otherwise be flushed by both
     processes *)
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close job_w;
      Unix.close res_r;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        parent_fds;
      child_loop ~worker ~setup job_r res_w
  | pid ->
      Unix.close job_r;
      Unix.close res_w;
      (pid, job_w, res_r)

module Pool = struct
  type ticket = int

  type pending = {
    ticket : ticket;
    payload : Minijson.t;
    batch : string;
    mutable attempts : int;
    mutable not_before : float;  (* epoch s; 0. = dispatchable now *)
  }

  type slot = {
    slot_id : int;
    mutable pid : int;
    mutable to_fd : Unix.file_descr;
    mutable from_fd : Unix.file_descr;
    rdbuf : Buffer.t;
    mutable current : (pending * float) option;  (* in-flight, start_us *)
    mutable alive : bool;
    mutable consec_crashes : int;  (* since the slot's last success *)
    mutable down_until : float;  (* respawn-backoff deadline; 0. = none *)
  }

  type completion = {
    c_ticket : ticket;
    c_result : (Minijson.t, string) result;
  }

  type t = {
    slots : slot option array;
    mutable queue : pending list;  (* submission order *)
    owners : (string, int) Hashtbl.t;  (* batch -> owning slot *)
    batch_refs : (string, int) Hashtbl.t;  (* live jobs per batch *)
    mutable completed : completion list;  (* newest first *)
    mutable next_ticket : int;
    worker : Minijson.t -> Minijson.t;
    setup : unit -> unit;
    max_retries : int;
    retry_backoff : float;  (* base delay before a crash retry; 0. = none *)
    respawn_backoff : float;  (* base delay before reviving a slot *)
    poison_threshold : int;  (* worker kills per batch before giving up *)
    crash_ledger : (string, int) Hashtbl.t;  (* batch -> workers it killed *)
    poisoned : (string, string) Hashtbl.t;  (* batch -> diagnostic *)
    mutable rng : int;  (* deterministic jitter state *)
    mutable crashes : int;
    mutable respawns : int;
    chunk : Bytes.t;
    prev_sigpipe : Sys.signal_behavior option;
    mutable shut : bool;
  }

  (* Deterministic jitter: a private LCG, so a given (seed, crash
     sequence) produces the same backoff schedule every run — chaos
     tests replay exactly. *)
  let jitter_frac t =
    t.rng <- (t.rng * 1103515245 + 12345) land 0x3FFFFFFF;
    float_of_int t.rng /. float_of_int 0x40000000

  (* Exponential backoff with jitter: base * 2^(n-1) * [0.5, 1.5). *)
  let backoff_delay t base n =
    if base <= 0. || n < 1 then 0.
    else base *. (2. ** float_of_int (min 16 (n - 1))) *. (0.5 +. jitter_frac t)

  (* -- batch ownership: jobs sharing a batch key run, in order, on one
        slot, so worker-local memos are hit instead of recomputed ----- *)

  let batch_ref t batch =
    match Hashtbl.find_opt t.batch_refs batch with
    | Some n -> Hashtbl.replace t.batch_refs batch (n + 1)
    | None ->
        Hashtbl.replace t.batch_refs batch 1;
        Telemetry.incr "exec.batches"

  let batch_unref t batch =
    match Hashtbl.find_opt t.batch_refs batch with
    | Some n when n > 1 -> Hashtbl.replace t.batch_refs batch (n - 1)
    | Some _ ->
        Hashtbl.remove t.batch_refs batch;
        Hashtbl.remove t.owners batch
    | None -> ()

  let live_parent_fds t =
    Array.to_list t.slots
    |> List.concat_map (function
         | Some s when s.alive -> [ s.to_fd; s.from_fd ]
         | _ -> [])

  let respawn t slot_id =
    let pid, to_fd, from_fd =
      spawn ~worker:t.worker ~setup:t.setup ~parent_fds:(live_parent_fds t)
    in
    match t.slots.(slot_id) with
    | None ->
        t.slots.(slot_id) <-
          Some
            {
              slot_id;
              pid;
              to_fd;
              from_fd;
              rdbuf = Buffer.create 4096;
              current = None;
              alive = true;
              consec_crashes = 0;
              down_until = 0.;
            }
    | Some s ->
        s.pid <- pid;
        s.to_fd <- to_fd;
        s.from_fd <- from_fd;
        Buffer.clear s.rdbuf;
        s.alive <- true;
        s.down_until <- 0.

  (* Mark the slot dead, close its pipes and collect the child.  The
     worker is already gone (or about to be): first try a non-blocking
     wait, then escalate to SIGKILL so a wedged worker cannot leave a
     zombie behind — [waitpid] always runs, so no defunct process
     outlives the pool. *)
  let reap ?(grace = 0.2) s =
    s.alive <- false;
    (try Unix.close s.to_fd with Unix.Unix_error _ -> ());
    (try Unix.close s.from_fd with Unix.Unix_error _ -> ());
    Buffer.clear s.rdbuf;
    let rec poll deadline =
      match waitpid_retry [ Unix.WNOHANG ] s.pid with
      | 0, _ ->
          if Unix.gettimeofday () >= deadline then begin
            (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
            let _, st = waitpid_retry [] s.pid in
            status_string st
          end
          else begin
            (try Unix.sleepf 0.005 with Unix.Unix_error _ -> ());
            poll deadline
          end
      | _, st -> status_string st
      | exception Unix.Unix_error _ -> "unknown status"
    in
    poll (Unix.gettimeofday () +. grace)

  let complete t (p : pending) result =
    Telemetry.incr "exec.jobs";
    (match result with Error _ -> Telemetry.incr "exec.errors" | Ok _ -> ());
    if p.attempts > 0 then Fault.note_recovered ();
    batch_unref t p.batch;
    t.completed <- { c_ticket = p.ticket; c_result = result } :: t.completed

  let finish_job t s (p : pending) result =
    (match s.current with
    | Some (_, start_us) ->
        Telemetry.record_span "exec.job"
          ~args:
            [ ("job", string_of_int p.ticket);
              ("batch", p.batch);
              ("worker", string_of_int s.slot_id)
            ]
          ~start_us
          ~dur_us:(Telemetry.now_us () -. start_us)
    | None -> ());
    s.current <- None;
    s.consec_crashes <- 0;
    complete t p result

  (* The worker died (or wrote garbage): account the fault, retry the
     in-flight job within its bound (after an exponential backoff when
     one is configured), put the worker back up — immediately, or after
     a respawn backoff when the slot keeps dying.  A batch whose jobs
     have now killed [poison_threshold] workers is poisoned: its job
     fails with a diagnostic instead of crash-looping the pool, and so
     does everything queued under the same batch key. *)
  let handle_crash t s =
    let status = reap s in
    Fault.note_detected ();
    t.crashes <- t.crashes + 1;
    Telemetry.incr "exec.crashes";
    Log.warn (fun m -> m "worker %d crashed (%s)" s.slot_id status);
    (match s.current with
    | None -> ()
    | Some (p, start_us) ->
        Telemetry.record_span "exec.job"
          ~args:
            [ ("job", string_of_int p.ticket);
              ("batch", p.batch);
              ("worker", string_of_int s.slot_id);
              ("crashed", status)
            ]
          ~start_us
          ~dur_us:(Telemetry.now_us () -. start_us);
        s.current <- None;
        p.attempts <- p.attempts + 1;
        let kills =
          let n =
            1 + Option.value ~default:0 (Hashtbl.find_opt t.crash_ledger p.batch)
          in
          Hashtbl.replace t.crash_ledger p.batch n;
          n
        in
        if t.poison_threshold > 0 && kills >= t.poison_threshold then begin
          let diag =
            Printf.sprintf
              "poison-pill job: batch %S killed %d worker(s), last %s; refusing \
               further retries"
              p.batch kills status
          in
          Hashtbl.replace t.poisoned p.batch diag;
          Telemetry.incr "exec.poisoned";
          Log.err (fun m -> m "%s" diag);
          complete t p (Error diag)
        end
        else if p.attempts <= t.max_retries then begin
          Telemetry.incr "exec.retries";
          p.not_before <-
            (let d = backoff_delay t t.retry_backoff p.attempts in
             if d > 0. then Unix.gettimeofday () +. d else 0.);
          (* front of the queue: in-batch order is preserved *)
          t.queue <- p :: t.queue
        end
        else
          complete t p
            (Error
               (Printf.sprintf "worker crashed (%s) after %d attempt(s)" status
                  p.attempts)));
    if not t.shut then begin
      s.consec_crashes <- s.consec_crashes + 1;
      let delay = backoff_delay t t.respawn_backoff s.consec_crashes in
      if delay > 0. then begin
        s.down_until <- Unix.gettimeofday () +. delay;
        Log.warn (fun m ->
            m "worker %d: %d consecutive crash(es), respawn in %.3fs" s.slot_id
              s.consec_crashes delay)
      end
      else begin
        respawn t s.slot_id;
        t.respawns <- t.respawns + 1;
        Telemetry.incr "exec.respawns"
      end
    end

  (* Revive slots whose respawn backoff has expired. *)
  let revive t =
    if not t.shut then begin
      let now = Unix.gettimeofday () in
      Array.iter
        (function
          | Some s when (not s.alive) && s.down_until > 0. && s.down_until <= now
            ->
              respawn t s.slot_id;
              t.respawns <- t.respawns + 1;
              Telemetry.incr "exec.respawns"
          | _ -> ())
        t.slots
    end

  (* Fail every queued job whose batch has been poisoned. *)
  let sweep_poisoned t =
    if Hashtbl.length t.poisoned > 0 then begin
      let dead, live =
        List.partition (fun p -> Hashtbl.mem t.poisoned p.batch) t.queue
      in
      t.queue <- live;
      List.iter
        (fun p -> complete t p (Error (Hashtbl.find t.poisoned p.batch)))
        dead
    end

  (* Pick the first queued job this slot may run: its batch is either
     unowned (the slot adopts it) or already owned by this slot.  A job
     still in retry backoff is skipped — and so is everything queued
     behind it under the same batch key, or in-batch order would be
     violated. *)
  let take_for t s =
    let now = Unix.gettimeofday () in
    let held = Hashtbl.create 4 in
    let rec go acc = function
      | [] -> None
      | p :: rest ->
          if Hashtbl.mem held p.batch then go (p :: acc) rest
          else if p.not_before > now then begin
            Hashtbl.replace held p.batch ();
            go (p :: acc) rest
          end
          else (
            match Hashtbl.find_opt t.owners p.batch with
            | Some id when id <> s.slot_id -> go (p :: acc) rest
            | _ ->
                Hashtbl.replace t.owners p.batch s.slot_id;
                t.queue <- List.rev_append acc rest;
                Some p)
    in
    go [] t.queue

  let rec dispatch t s =
    if s.alive && s.current = None && not t.shut then
      match take_for t s with
      | None -> ()
      | Some p -> (
          s.current <- Some (p, Telemetry.now_us ());
          let frame = encode_request p.ticket p.payload ^ "\n" in
          match write_all s.to_fd frame 0 (String.length frame) with
          | () -> ()
          | exception Unix.Unix_error _ ->
              (* worker already gone — crash path, then try again *)
              handle_crash t s;
              dispatch t s)

  let each_slot t f =
    Array.iter (function Some s -> f s | None -> ()) t.slots

  let dispatch_all t = each_slot t (fun s -> dispatch t s)

  let busy_slots t =
    Array.to_list t.slots
    |> List.filter_map (function
         | Some s when s.alive && s.current <> None -> Some s
         | _ -> None)

  let create ?(jobs = 1) ?(max_retries = 1) ?(retry_backoff = 0.)
      ?(respawn_backoff = 0.) ?(poison_threshold = 0) ?(backoff_seed = 0)
      ?(child_setup = fun () -> ()) ~worker () =
    let jobs = clamp_jobs jobs in
    let setup () =
      (* the child's copies of the parent's recordings and counters are
         private noise: drop them before user setup runs *)
      Telemetry.disable ();
      Telemetry.reset ();
      Fault.reset_counts ();
      child_setup ()
    in
    (* a crashed worker turns the parent's next write into SIGPIPE,
       which would kill the whole process: convert it to EPIPE for the
       crash handler.  Restored on [shutdown]. *)
    let prev_sigpipe =
      match Sys.signal Sys.sigpipe Sys.Signal_ignore with
      | prev -> Some prev
      | exception (Invalid_argument _ | Sys_error _) -> None
    in
    let t =
      {
        slots = Array.make jobs None;
        queue = [];
        owners = Hashtbl.create 16;
        batch_refs = Hashtbl.create 16;
        completed = [];
        next_ticket = 0;
        worker;
        setup;
        max_retries;
        retry_backoff;
        respawn_backoff;
        poison_threshold;
        crash_ledger = Hashtbl.create 16;
        poisoned = Hashtbl.create 4;
        rng = (backoff_seed lxor 0x5DEECE6) land 0x3FFFFFFF;
        crashes = 0;
        respawns = 0;
        chunk = Bytes.create 65536;
        prev_sigpipe;
        shut = false;
      }
    in
    for i = 0 to jobs - 1 do
      respawn t i
    done;
    Telemetry.incr "exec.workers" ~by:jobs;
    Log.debug (fun m -> m "pool: %d persistent worker(s)" jobs);
    t

  let submit t ?batch payload =
    if t.shut then invalid_arg "Exec.Pool.submit: pool is shut down";
    let ticket = t.next_ticket in
    t.next_ticket <- ticket + 1;
    let batch =
      match batch with
      | Some b -> b
      | None -> Printf.sprintf "#%d" ticket  (* no affinity *)
    in
    let p = { ticket; payload; batch; attempts = 0; not_before = 0. } in
    batch_ref t batch;
    (match Hashtbl.find_opt t.poisoned batch with
    | Some diag ->
        (* the batch already killed its quota of workers: fail fast *)
        complete t p (Error diag)
    | None ->
        t.queue <- t.queue @ [ p ];
        dispatch_all t);
    ticket

  let queued t = List.length t.queue
  let in_flight t = List.length (busy_slots t)
  let pending t = queued t + in_flight t

  type health = {
    h_workers : int;  (** configured slots *)
    h_alive : int;  (** slots with a live worker right now *)
    h_crashes : int;
    h_respawns : int;
    h_poisoned : int;  (** batches on the poison ledger *)
  }

  let health t =
    let alive =
      Array.fold_left
        (fun n -> function Some s when s.alive -> n + 1 | _ -> n)
        0 t.slots
    in
    {
      h_workers = Array.length t.slots;
      h_alive = alive;
      h_crashes = t.crashes;
      h_respawns = t.respawns;
      h_poisoned = Hashtbl.length t.poisoned;
    }

  let poisoned_batches t =
    Hashtbl.fold (fun b _ acc -> b :: acc) t.poisoned []

  (* Chaos hook: SIGKILL the worker behind the [idx]-th busy slot (mod
     the busy count).  Detection and recovery then run through the
     ordinary crash machinery — which is the point. *)
  let chaos_kill t idx =
    match busy_slots t with
    | [] -> false
    | busy -> (
        let s = List.nth busy (abs idx mod List.length busy) in
        match Unix.kill s.pid Sys.sigkill with
        | () -> true
        | exception Unix.Unix_error _ -> false)

  let result_fds t = List.map (fun s -> s.from_fd) (busy_slots t)

  let cancel t ticket =
    if List.exists (fun p -> p.ticket = ticket) t.queue then begin
      let p = List.find (fun p -> p.ticket = ticket) t.queue in
      t.queue <- List.filter (fun q -> q.ticket <> ticket) t.queue;
      batch_unref t p.batch;
      Telemetry.incr "exec.cancelled";
      `Cancelled_queued
    end
    else
      let hit = ref `Not_found in
      each_slot t (fun s ->
          match s.current with
          | Some (p, _) when p.ticket = ticket && s.alive ->
              (* the job is already running: the only way to stop it is
                 to kill the worker.  Not a fault — a deliberate kill. *)
              s.current <- None;
              (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (reap s);
              batch_unref t p.batch;
              Telemetry.incr "exec.cancelled";
              if not t.shut then respawn t s.slot_id;
              hit := `Cancelled_running
          | _ -> ());
      !hit

  (* Read the one pending response line of [s].  The select said the
     descriptor is readable, so the first read never blocks; subsequent
     reads only happen when a line is split across pipe chunks, which
     the worker completes promptly (it writes whole frames). *)
  let read_response t s =
    match read_line_fd s.from_fd s.rdbuf t.chunk with
    | None -> handle_crash t s
    | Some line -> (
        match (decode_result line, s.current) with
        | Ok (id, res), Some (p, _) when id = p.ticket -> finish_job t s p res
        | Ok _, _ | Error _, _ ->
            (* wrong id or broken frame: the worker is confused *)
            Log.warn (fun m -> m "worker %d: bad response frame" s.slot_id);
            handle_crash t s)
    | exception Unix.Unix_error _ -> handle_crash t s

  let drain t =
    let cs = List.rev t.completed in
    t.completed <- [];
    cs

  (* Next wall-clock instant at which supervision state changes on its
     own: a deferred retry becomes due, or a downed slot may revive.
     [infinity] when nothing is scheduled. *)
  let earliest_event t =
    let ev = ref infinity in
    List.iter (fun p -> if p.not_before > 0. then ev := min !ev p.not_before)
      t.queue;
    Array.iter
      (function
        | Some s when (not s.alive) && s.down_until > 0. ->
            ev := min !ev s.down_until
        | _ -> ())
      t.slots;
    !ev

  let poll ?(timeout = -1.0) t =
    revive t;
    sweep_poisoned t;
    dispatch_all t;
    (match busy_slots t with
    | [] ->
        (* nothing in flight, but a deferred retry or a downed worker
           may still owe us a completion: wait for the earliest one
           (bounded by [timeout]) instead of spinning *)
        let ev = earliest_event t in
        if ev < infinity then begin
          let wait = max 0. (ev -. Unix.gettimeofday ()) in
          let wait = if timeout >= 0. then min wait timeout else wait in
          if wait > 0. then
            (try Unix.sleepf wait with Unix.Unix_error _ -> ());
          revive t;
          dispatch_all t
        end
    | busy -> (
        let fds = List.map (fun s -> s.from_fd) busy in
        (* a pending supervision event caps the select: a retry must not
           sit in the queue while we block on unrelated descriptors *)
        let timeout =
          match earliest_event t with
          | ev when ev = infinity -> timeout
          | ev ->
              let d = max 0.001 (ev -. Unix.gettimeofday ()) in
              if timeout < 0. then d else min timeout d
        in
        let readable, _, _ =
          match Unix.select fds [] [] timeout with
          | r -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        List.iter
          (fun fd ->
            match List.find_opt (fun s -> s.from_fd = fd) busy with
            | Some s when s.alive -> read_response t s
            | _ -> ())
          readable;
        revive t;
        sweep_poisoned t;
        dispatch_all t));
    drain t

  let shutdown t =
    if not t.shut then begin
      t.shut <- true;
      t.queue <- [];
      (* close every request pipe first: idle workers see EOF and exit
         on their own, so the reap below is normally instantaneous *)
      each_slot t (fun s ->
          if s.alive then
            try Unix.close s.to_fd with Unix.Unix_error _ -> ());
      each_slot t (fun s ->
          if s.alive then begin
            (try Unix.close s.from_fd with Unix.Unix_error _ -> ());
            (* reap with a kill fallback: no worker — wedged, crashed or
               healthy — may survive the pool or linger as a zombie *)
            s.alive <- false;
            let rec collect deadline =
              match waitpid_retry [ Unix.WNOHANG ] s.pid with
              | 0, _ ->
                  if Unix.gettimeofday () >= deadline then begin
                    (try Unix.kill s.pid Sys.sigkill
                     with Unix.Unix_error _ -> ());
                    ignore (waitpid_retry [] s.pid)
                  end
                  else begin
                    (try Unix.sleepf 0.005 with Unix.Unix_error _ -> ());
                    collect deadline
                  end
              | _ -> ()
              | exception Unix.Unix_error _ -> ()
            in
            collect (Unix.gettimeofday () +. 0.5)
          end);
      match t.prev_sigpipe with
      | Some prev -> ( try Sys.set_signal Sys.sigpipe prev with _ -> ())
      | None -> ()
    end
end

(* ------------------------------------------------------------------ *)
(* One-shot map, expressed over the pool                               *)

let map ?(jobs = 1) ?(max_retries = 1) ?(child_setup = fun () -> ()) ~worker
    (js : job list) : (Minijson.t, string) result array =
  let n = List.length js in
  let results = Array.make n (Error "job was never executed") in
  if jobs <= 1 || n <= 1 then
    (* inline: same accounting and error capture, no processes *)
    List.iteri
      (fun i (j : job) ->
        let start_us = Telemetry.now_us () in
        (results.(i) <-
           (match worker j.payload with
           | v -> Ok v
           | exception e ->
               Telemetry.incr "exec.errors";
               Error (Printexc.to_string e)));
        Telemetry.incr "exec.jobs";
        Telemetry.record_span "exec.job"
          ~args:[ ("job", string_of_int i); ("batch", j.batch) ]
          ~start_us
          ~dur_us:(Telemetry.now_us () -. start_us))
      js
  else begin
    (* never more workers than distinct batches: a batch runs whole on
       one worker, so extra processes would only sit idle *)
    let nbatches =
      List.length (List.sort_uniq compare (List.map (fun j -> j.batch) js))
    in
    let nworkers = min (clamp_jobs jobs) nbatches in
    Log.debug (fun m ->
        m "pool: %d worker(s), %d job(s) in %d batch(es)" nworkers n nbatches);
    let pool = Pool.create ~jobs:nworkers ~max_retries ~child_setup ~worker () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        let index_of = Hashtbl.create n in
        List.iteri
          (fun i (j : job) ->
            Hashtbl.replace index_of
              (Pool.submit pool ~batch:j.batch j.payload)
              i)
          js;
        let remaining = ref n in
        while !remaining > 0 do
          List.iter
            (fun (c : Pool.completion) ->
              match Hashtbl.find_opt index_of c.Pool.c_ticket with
              | Some i ->
                  results.(i) <- c.Pool.c_result;
                  decr remaining
              | None -> ())
            (Pool.poll pool)
        done)
  end;
  results
