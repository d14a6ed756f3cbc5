(** gdpcd load generator (see loadgen.mli). *)

module Settings = Gdp_core.Pipeline.Settings

let src = Logs.Src.create "loadgen" ~doc:"gdpcd load generator"

module Log = (val Logs.src_log src : Logs.LOG)

type mode = Closed | Open of float

type config = {
  endpoint : string;
  connections : int;
  requests : int;
  duplicate_ratio : float;
  mode : mode;
  method_ : Partition.Methods.t;
  deadline_ms : int option;
  seed : int;
  chaos : string option;
  inject_seed : int;
  max_attempts : int;
}

let default_config =
  {
    endpoint = "gdpcd.sock";
    connections = 4;
    requests = 40;
    duplicate_ratio = 0.5;
    mode = Closed;
    method_ = Partition.Methods.Gdp;
    deadline_ms = None;
    seed = 42;
    chaos = None;
    inject_seed = 0;
    max_attempts = 5;
  }

type summary = {
  requests : int;
  succeeded : int;
  failed : int;
  cache_hits : int;
  duplicates_sent : int;
  elapsed_s : float;
  throughput_cps : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  mean_us : float;
  concurrency : int;
  shed : int;
  retries : int;
  injected : int;
  gave_up : int;
  artifact_mismatches : int;
  traced : int;
  server_p50_us : float;
  server_p95_us : float;
  server_p99_us : float;
  server_mean_us : float;
}

(* A small two-phase kernel whose object homes actually matter, with
   one constant varied to make each program's content unique. *)
let program k =
  Printf.sprintf
    {|
int scale = %d;

void main() {
  int n = 24;
  int *a = malloc(24);
  int *b = malloc(24);
  for (int i = 0; i < n; i = i + 1) { a[i] = in(i) + scale; }
  for (int i = 0; i < n; i = i + 1) { b[i] = a[i] * 3 - scale; }
  int s = 0;
  for (int i = 0; i < n; i = i + 1) { s = s + a[i] * b[i]; }
  out(s);
}
|}
    k

let workload = List.init 24 (fun i -> ((i * 37) + 11) mod 256)

type conn = { mutable cl : Client.t; mutable busy : (int * int) option }
(* busy: (request index, attempt number) *)

(* ------------------------------------------------------------------ *)
(* Client-side chaos: hostile wire behaviors, selected per send by the
   armed {!Fault} spec.  Each is the attack a hardened daemon must
   shrug off: a half-written frame, a bit-flipped frame, a byte-drip
   sender, a client that vanishes right after submitting. *)

type behavior = Normal | Torn | Corrupt | Slow_loris | Disconnect

let pick_behavior () =
  if not (Fault.armed ()) then Normal
  else if Fault.fire "service.frame.torn" then Torn
  else if Fault.fire "service.frame.corrupt" then Corrupt
  else if Fault.fire "service.client.slow-loris" then Slow_loris
  else if Fault.fire "service.client.disconnect" then Disconnect
  else Normal

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let ignore_unix f = try f () with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)

let run (cfg : config) =
  if cfg.requests <= 0 then
    invalid_arg "Loadgen.run: requests must be positive";
  if cfg.connections <= 0 then
    invalid_arg "Loadgen.run: connections must be positive";
  let chaos_armed =
    match cfg.chaos with
    | None -> false
    | Some spec -> (
        match Fault.parse_spec spec with
        | Error m -> invalid_arg ("Loadgen.run: bad chaos spec: " ^ m)
        | Ok s ->
            Fault.arm ~seed:cfg.inject_seed s;
            true)
  in
  Fun.protect ~finally:(fun () -> if chaos_armed then Fault.disarm ())
  @@ fun () ->
  (* reproducible request plan: duplicate requests draw their program
     from a 4-entry shared set, the rest are unique *)
  let state = ref (cfg.seed land 0x3FFFFFFF) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  let pool_ks = [| 101; 202; 303; 404 |] in
  let dup_threshold = int_of_float (cfg.duplicate_ratio *. 1000.) in
  let plan =
    Array.init cfg.requests (fun i ->
        if next () mod 1000 < dup_threshold then
          (true, pool_ks.(next () mod Array.length pool_ks))
        else (false, 1009 + i))
  in
  let duplicates_sent =
    Array.fold_left (fun a (d, _) -> if d then a + 1 else a) 0 plan
  in
  let settings = Settings.default cfg.method_ in
  let job_of i k =
    {
      Protocol.id = Printf.sprintf "lg-%d" i;
      source = program k;
      input = workload;
      settings;
      deadline_ms = cfg.deadline_ms;
      verify = false;
      trace_id = None (* server-assigned; read back from the response *);
    }
  in
  (* Fail fast and clearly when nothing can be listening: a missing
     Unix socket file means no daemon, not a daemon worth retrying
     against for 20 backoff rounds. *)
  if (not (Client.is_tcp cfg.endpoint)) && not (Sys.file_exists cfg.endpoint)
  then
    failwith
      (Printf.sprintf
         "loadgen: no daemon socket at %s (is gdpcd running? start one with \
          `gdpcd --socket %s`)"
         cfg.endpoint cfg.endpoint);
  let nconn = min cfg.connections cfg.requests in
  let fresh_conn () = Client.connect ~attempts:20 cfg.endpoint in
  let conns = Array.init nconn (fun _ -> { cl = fresh_conn (); busy = None }) in
  let reconnect c =
    Client.close c.cl;
    c.cl <- fresh_conn ()
  in
  let t0 = Unix.gettimeofday () in
  let due =
    match cfg.mode with
    | Closed -> None
    | Open rate ->
        if rate <= 0. then
          invalid_arg "Loadgen.run: open-loop rate must be positive";
        Some (Array.init cfg.requests (fun i -> t0 +. (float_of_int i /. rate)))
  in
  let start_of = Array.make cfg.requests 0. in
  let latencies = Array.make cfg.requests 0. in
  (* server-side total_us per request, from the response's trace member:
     the server-vs-client latency breakdown *)
  let server_us = ref [] in
  let note_trace trace =
    match
      Option.bind trace (fun t ->
          Option.bind (Minijson.member "total_us" t) Minijson.to_float)
    with
    | Some us -> server_us := us :: !server_us
    | None -> ()
  in
  let succeeded = ref 0 and failed = ref 0 and hits = ref 0 in
  let shed = ref 0
  and retries = ref 0
  and injected = ref 0
  and gave_up = ref 0
  and mismatches = ref 0 in
  let sent = ref 0 and completed = ref 0 in
  (* requests bounced by admission control (or chaos) waiting to go
     again: (index, attempt, not-before) *)
  let retry_q : (int * int * float) list ref = ref [] in
  (* the compile is content-addressed, so every response for program
     [k] under one settings document must carry identical bytes — the
     "zero wrong artifacts" check chaos runs gate on *)
  let artifact_of : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let check_artifact i art =
    let _, k = plan.(i) in
    let bytes = Minijson.encode art in
    match Hashtbl.find_opt artifact_of k with
    | None -> Hashtbl.replace artifact_of k bytes
    | Some prev ->
        if prev <> bytes then begin
          incr mismatches;
          Log.err (fun m -> m "artifact mismatch for program %d" k)
        end
  in
  (* Send request [i] on [c] through the selected chaos behavior.
     Returns [true] when a response is now owed on the connection. *)
  let send_request c i _attempt =
    let _, k = plan.(i) in
    let j = job_of i k in
    match pick_behavior () with
    | Normal ->
        Client.send c.cl (Protocol.Submit j);
        true
    | Torn ->
        (* half a frame, then vanish: the decoder must never deliver it *)
        incr injected;
        let raw = Frame.to_string (Protocol.request_to_json (Protocol.Submit j)) in
        let half = max 1 (String.length raw / 2) in
        ignore_unix (fun () -> write_all (Client.fd c.cl) raw 0 half);
        reconnect c;
        Client.send c.cl (Protocol.Submit j);
        true
    | Corrupt ->
        (* one flipped payload byte: the server must reject the frame,
           not act on it *)
        incr injected;
        let raw = Frame.to_string (Protocol.request_to_json (Protocol.Submit j)) in
        let b = Bytes.of_string raw in
        let off = 4 + Fault.rand "service.frame.corrupt" (Bytes.length b - 4) in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
        ignore_unix (fun () ->
            write_all (Client.fd c.cl) (Bytes.to_string b) 0 (Bytes.length b));
        reconnect c;
        Client.send c.cl (Protocol.Submit j);
        true
    | Slow_loris ->
        (* drip the (valid) frame a few bytes at a time *)
        incr injected;
        let raw = Frame.to_string (Protocol.request_to_json (Protocol.Submit j)) in
        let n = String.length raw in
        let chunk = 7 in
        let off = ref 0 in
        (try
           while !off < n do
             let len = min chunk (n - !off) in
             write_all (Client.fd c.cl) raw !off len;
             off := !off + len;
             if !off < n then Unix.sleepf 0.001
           done
         with Unix.Unix_error _ ->
           (* server gave up on us: start over on a fresh connection *)
           reconnect c;
           Client.send c.cl (Protocol.Submit j));
        true
    | Disconnect ->
        (* a complete submit, then the client evaporates mid-job: the
           server must drop the result, not crash or misdeliver it *)
        incr injected;
        (try Client.send c.cl (Protocol.Submit j)
         with Unix.Unix_error _ -> ());
        reconnect c;
        Client.send c.cl (Protocol.Submit j);
        true
  in
  let requeue i attempt now delay =
    if attempt >= cfg.max_attempts then begin
      incr gave_up;
      incr failed;
      latencies.(i) <- Unix.gettimeofday () -. start_of.(i);
      incr completed
    end
    else begin
      incr retries;
      retry_q := !retry_q @ [ (i, attempt + 1, now +. delay) ]
    end
  in
  let try_fire now =
    Array.iter
      (fun c ->
        if c.busy = None then begin
          (* a due retry takes priority over fresh work *)
          let retry =
            let rec pick acc = function
              | [] -> None
              | ((i, a, nb) as r) :: rest ->
                  if nb <= now then begin
                    retry_q := List.rev_append acc rest;
                    Some (i, a)
                  end
                  else pick (r :: acc) rest
            in
            pick [] !retry_q
          in
          match retry with
          | Some (i, attempt) ->
              if send_request c i attempt then c.busy <- Some (i, attempt)
          | None ->
              if !sent < cfg.requests then begin
                let i = !sent in
                let fire, start =
                  match due with
                  | None -> (true, now)
                  | Some d -> if now >= d.(i) then (true, d.(i)) else (false, 0.)
                in
                if fire then begin
                  sent := i + 1;
                  start_of.(i) <- start;
                  if send_request c i 1 then c.busy <- Some (i, 1)
                end
              end
          end)
      conns
  in
  while !completed < cfg.requests do
    let now = Unix.gettimeofday () in
    try_fire now;
    let busy_fds =
      Array.fold_left
        (fun acc c ->
          match c.busy with Some _ -> Client.fd c.cl :: acc | None -> acc)
        [] conns
    in
    let timeout =
      let next_due =
        match due with
        | Some d when !sent < cfg.requests -> Some d.(!sent)
        | _ -> None
      in
      let next_retry =
        List.fold_left
          (fun acc (_, _, nb) ->
            match acc with None -> Some nb | Some a -> Some (Float.min a nb))
          None !retry_q
      in
      match (next_due, next_retry) with
      | None, None -> 5.0
      | Some d, None | None, Some d -> Float.max 0. (Float.min 5.0 (d -. now))
      | Some a, Some b ->
          Float.max 0. (Float.min 5.0 (Float.min a b -. now))
    in
    if busy_fds = [] then (
      (* everything idle but work remains: wait for the next due time *)
      try ignore (Unix.select [] [] [] (Float.min timeout 0.05))
      with Unix.Unix_error (Unix.EINTR, _, _) -> ())
    else
      match Unix.select busy_fds [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
          Array.iter
            (fun c ->
              match c.busy with
              | Some (i, attempt) when List.mem (Client.fd c.cl) readable -> (
                  let resp = Client.recv c.cl in
                  let fin = Unix.gettimeofday () in
                  c.busy <- None;
                  match resp with
                  | Ok (Protocol.Result { cached; result; trace; _ }) ->
                      latencies.(i) <- fin -. start_of.(i);
                      incr succeeded;
                      if cached then incr hits;
                      note_trace trace;
                      check_artifact i result;
                      incr completed
                  | Ok (Protocol.Failed { retry_after_ms = Some ms; _ }) ->
                      (* admission control pushed back: honor the hint *)
                      incr shed;
                      requeue i attempt fin (float_of_int (max 1 ms) /. 1000.)
                  | Ok (Protocol.Failed _) | Ok _ ->
                      latencies.(i) <- fin -. start_of.(i);
                      incr failed;
                      incr completed
                  | Error m ->
                      if chaos_armed then begin
                        (* the connection was a casualty (server dropped
                           us after a hostile frame, worker churn, ...):
                           recover and try again *)
                        reconnect c;
                        requeue i attempt fin 0.01
                      end
                      else failwith ("loadgen: connection error: " ^ m))
              | _ -> ())
            conns
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Array.iter (fun c -> Client.close c.cl) conns;
  let lat_us = Array.map (fun s -> s *. 1e6) latencies in
  Array.sort compare lat_us;
  let pct q =
    let rank = int_of_float (ceil (q *. float_of_int cfg.requests)) - 1 in
    lat_us.(max 0 (min (cfg.requests - 1) rank))
  in
  let mean =
    Array.fold_left ( +. ) 0. lat_us /. float_of_int (max 1 cfg.requests)
  in
  let srv = Array.of_list !server_us in
  Array.sort compare srv;
  let traced = Array.length srv in
  let spct q =
    if traced = 0 then 0.
    else
      let rank = int_of_float (ceil (q *. float_of_int traced)) - 1 in
      srv.(max 0 (min (traced - 1) rank))
  in
  let smean =
    if traced = 0 then 0.
    else Array.fold_left ( +. ) 0. srv /. float_of_int traced
  in
  {
    requests = cfg.requests;
    succeeded = !succeeded;
    failed = !failed;
    cache_hits = !hits;
    duplicates_sent;
    elapsed_s = elapsed;
    throughput_cps = float_of_int !succeeded /. Float.max 1e-9 elapsed;
    p50_us = pct 0.5;
    p95_us = pct 0.95;
    p99_us = pct 0.99;
    mean_us = mean;
    concurrency = nconn;
    shed = !shed;
    retries = !retries;
    injected = !injected;
    gave_up = !gave_up;
    artifact_mismatches = !mismatches;
    traced;
    server_p50_us = spct 0.5;
    server_p95_us = spct 0.95;
    server_p99_us = spct 0.99;
    server_mean_us = smean;
  }

(* ------------------------------------------------------------------ *)

type server_handle = { sh_pid : int; sh_socket : string }

let socket_counter = ref 0

let spawn_server ?(jobs = 2) ?(cache_capacity = 256) ?(max_pending = 64)
    ?(brownout = 1.0) ?store_dir ?inject ?trace ?events () =
  incr socket_counter;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gdpcd-%d-%d.sock" (Unix.getpid ()) !socket_counter)
  in
  match Unix.fork () with
  | 0 ->
      let code =
        try
          Server.run
            {
              Server.default_config with
              socket_path = Some path;
              jobs;
              cache_capacity;
              max_pending;
              brownout;
              store_dir;
              inject;
              trace;
              events;
            };
          0
        with _ -> 1
      in
      Unix._exit code
  | pid ->
      (* Wait for the bind before handing the socket out: callers (and
         [run]'s missing-socket preflight) may touch it immediately.  A
         child that dies before binding is surfaced right away instead
         of as a downstream connect failure. *)
      let rec await tries =
        if Sys.file_exists path then ()
        else if tries >= 100 then
          failwith
            (Printf.sprintf "spawn_server: %s did not appear within 5 s" path)
        else begin
          (match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _, status ->
              let what =
                match status with
                | Unix.WEXITED c -> Printf.sprintf "exited %d" c
                | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
                | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s
              in
              failwith ("spawn_server: daemon died before binding: " ^ what)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          (try ignore (Unix.select [] [] [] 0.05)
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          await (tries + 1)
        end
      in
      await 0;
      { sh_pid = pid; sh_socket = path }

let stop_server ?(signal = Sys.sigterm) { sh_pid = pid; sh_socket = path } =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if tries >= 100 then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          let rec wait () =
            try ignore (Unix.waitpid [] pid)
            with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          in
          wait ()
        end
        else begin
          (try ignore (Unix.select [] [] [] 0.05)
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          reap (tries + 1)
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap tries
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap 0;
  try Unix.unlink path with Unix.Unix_error _ -> ()

let with_local_server ?jobs ?cache_capacity ?max_pending ?brownout ?store_dir
    ?inject ?trace ?events f =
  let h =
    spawn_server ?jobs ?cache_capacity ?max_pending ?brownout ?store_dir
      ?inject ?trace ?events ()
  in
  Fun.protect ~finally:(fun () -> stop_server h) (fun () -> f h.sh_socket)
