(** Process-pool executor and the [Pipeline.Settings] API: pooled runs
    must be identical to in-process runs (values bit for bit, rows, fuzz
    summaries), worker crashes must surface as retries then error rows,
    and settings must round-trip through their JSON form. *)

module Methods = Partition.Methods
module Pipeline = Gdp_core.Pipeline
module Settings = Gdp_core.Pipeline.Settings
module Experiments = Gdp_core.Experiments

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

type arith = N of int | Boom of string | Crash

(* a worker usable from both the inline and the forked path: doubles
   [N n], raises on [Boom], exits the process on [Crash] (pool mode
   only — tests using it must not take the inline path) *)
let arith_worker = function
  | N n -> 2 * n
  | Boom msg -> failwith msg
  | Crash -> Unix._exit 3

let int_job ?(batch = "") n = Exec.job ~batch (N n)

let result_strings results =
  Array.to_list results
  |> List.map (function
       | Ok v -> "ok:" ^ string_of_int v
       | Error m -> "error:" ^ m)

(* ------------------------------------------------------------------ *)
(* Exec.map                                                            *)

let test_map_pool_matches_inline () =
  let js =
    List.concat_map
      (fun b -> List.init 4 (fun i -> int_job ~batch:b (Char.code b.[0] + i)))
      [ "a"; "b"; "c" ]
  in
  let seq = Exec.map ~jobs:1 ~worker:arith_worker js in
  let par = Exec.map ~jobs:4 ~worker:arith_worker js in
  Alcotest.(check (list string))
    "pooled results identical to inline" (result_strings seq)
    (result_strings par)

let test_map_job_error_identical () =
  let js =
    [
      int_job 1;
      Exec.job (Boom "deliberate");
      int_job 3;
    ]
  in
  let seq = Exec.map ~jobs:1 ~worker:arith_worker js in
  let par = Exec.map ~jobs:2 ~worker:arith_worker js in
  Alcotest.(check (list string))
    "raised exceptions become identical error rows" (result_strings seq)
    (result_strings par);
  match seq.(1) with
  | Error m ->
      Alcotest.(check bool) "message survives" true (contains m "deliberate")
  | Ok _ -> Alcotest.fail "expected an error row"

let test_map_crash_retried_then_reported () =
  Fault.reset_counts ();
  let crash = Exec.job Crash in
  let js = [ int_job 1; crash; int_job 3; int_job 4 ] in
  let results = Exec.map ~jobs:2 ~worker:arith_worker js in
  (match results.(1) with
  | Error m ->
      Alcotest.(check bool)
        ("crash row mentions the exit status: " ^ m)
        true
        (contains m "worker crashed (exit 3)");
      Alcotest.(check bool)
        ("crash row counts both attempts: " ^ m)
        true
        (contains m "after 2 attempt(s)")
  | Ok _ -> Alcotest.fail "crashing job must become an error row");
  List.iter
    (fun i ->
      match results.(i) with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "healthy job %d lost to the crash: %s" i m)
    [ 0; 2; 3 ];
  let c = Fault.counts () in
  Alcotest.(check bool)
    "each crash was noted as a detected fault" true
    (c.Fault.detected >= 2)

let test_map_telemetry_accounting () =
  let js = List.init 3 (int_job ~batch:"t") in
  let _, snap = Telemetry.capture (fun () ->
      ignore (Exec.map ~jobs:1 ~worker:arith_worker js))
  in
  Alcotest.(check (option int))
    "exec.jobs counts every job" (Some 3)
    (Telemetry.Snapshot.find_counter snap "exec.jobs");
  Alcotest.(check int)
    "one exec.job span per job" 3
    (List.length (Telemetry.Snapshot.spans_named snap "exec.job"))

let test_clamp_jobs () =
  Alcotest.(check int) "0 -> 1" 1 (Exec.clamp_jobs 0);
  Alcotest.(check int) "negative -> 1" 1 (Exec.clamp_jobs (-4));
  Alcotest.(check int) "identity in range" 7 (Exec.clamp_jobs 7);
  Alcotest.(check int) "capped at 64" 64 (Exec.clamp_jobs 1000)

(* ------------------------------------------------------------------ *)
(* Settings round-trip                                                 *)

let settings_gen =
  QCheck.Gen.(
    let* clusters = int_range 2 8 in
    let* move_latency = int_range 1 20 in
    let* method_ = oneofl Methods.all in
    let* par_domains = int_range 1 8 in
    return
      {
        Settings.machine = Machine_spec.of_legacy ~clusters ~move_latency;
        method_;
        par_domains;
      })

let test_settings_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"of_json (to_json s) = Ok s"
       (QCheck.make settings_gen) (fun s ->
         match Settings.of_json (Settings.to_json s) with
         | Ok s' -> s' = s
         | Error m -> QCheck.Test.fail_reportf "rejected own encoding: %s" m))

let test_settings_rejections () =
  let expect_error ~substr doc =
    match Settings.of_json doc with
    | Ok _ -> Alcotest.failf "accepted a document missing %S" substr
    | Error m ->
        if not (contains m substr) then
          Alcotest.failf "expected %S in error %S" substr m
  in
  expect_error ~substr:"schema" (Minijson.obj [ ("clusters", Minijson.int 2) ]);
  let good = Settings.to_json (Settings.default Methods.Gdp) in
  (match good with
  | Minijson.Obj fields ->
      expect_error ~substr:"method"
        (Minijson.Obj
           (List.map
              (fun (k, v) ->
                if k = "method" then (k, Minijson.str "frobnicate") else (k, v))
              fields))
  | _ -> Alcotest.fail "to_json did not produce an object")

let test_settings_unknown_fields () =
  let expect_error ~substr doc =
    match Settings.of_json doc with
    | Ok _ -> Alcotest.failf "accepted a document with %S" substr
    | Error m ->
        if not (contains m substr) then
          Alcotest.failf "expected %S in error %S" substr m
  in
  (* a typo'd top-level option must fail loudly, naming the field *)
  match Settings.to_json (Settings.default Methods.Gdp) with
  | Minijson.Obj fields ->
      expect_error ~substr:"colour"
        (Minijson.Obj (fields @ [ ("colour", Minijson.int 3) ]))
  | _ -> Alcotest.fail "to_json did not produce an object"

let test_settings_version () =
  let doc_with_version v =
    match Settings.to_json (Settings.default Methods.Gdp) with
    | Minijson.Obj fields ->
        Minijson.Obj
          (List.map
             (fun (k, x) -> if k = "version" then (k, v) else (k, x))
             fields)
    | _ -> Alcotest.fail "to_json did not produce an object"
  in
  (* every machine ships as a current-version document... *)
  List.iter
    (fun preset ->
      let spec =
        match Machine_spec.preset preset with
        | Ok m -> m
        | Error e -> Alcotest.fail e
      in
      let s = { (Settings.default Methods.Gdp) with Settings.machine = spec } in
      (match Minijson.member "version" (Settings.to_json s) with
      | Some v ->
          Alcotest.(check (option int))
            (preset ^ " emits the current version") (Some Settings.version)
            (Minijson.to_int v)
      | None -> Alcotest.fail "no version field emitted");
      match Settings.of_json (Settings.to_json s) with
      | Ok s' ->
          Alcotest.(check bool) (preset ^ " settings round-trip") true (s' = s)
      | Error m -> Alcotest.failf "rejected %s settings: %s" preset m)
    [ "paper"; "ring8" ];
  (* ...and older documents are rejected, naming their version: one
     from before the field existed is version 1 *)
  (match
     Settings.of_json
       (match Settings.to_json (Settings.default Methods.Gdp) with
       | Minijson.Obj fields ->
           Minijson.Obj (List.filter (fun (k, _) -> k <> "version") fields)
       | d -> d)
   with
  | Ok _ -> Alcotest.fail "accepted a version-less document"
  | Error m ->
      if not (contains m "version-1") then
        Alcotest.failf "expected the version named in %S" m);
  (match Settings.of_json (doc_with_version (Minijson.int 2)) with
  | Ok _ -> Alcotest.fail "accepted a version-2 document"
  | Error m ->
      if not (contains m "version 2") then
        Alcotest.failf "expected the version named in %S" m);
  (* a newer document is rejected with an upgrade hint *)
  (match Settings.of_json (doc_with_version (Minijson.int (Settings.version + 1))) with
  | Ok _ -> Alcotest.fail "accepted a too-new version"
  | Error m ->
      if not (contains m "newer") then
        Alcotest.failf "expected an upgrade hint in %S" m);
  match Settings.of_json (doc_with_version (Minijson.int 0)) with
  | Ok _ -> Alcotest.fail "accepted version 0"
  | Error m ->
      if not (contains m "invalid version") then
        Alcotest.failf "expected an invalid-version error in %S" m

(* ------------------------------------------------------------------ *)
(* The persistent pool                                                 *)

let drain_pool pool n =
  let rec go acc =
    if List.length acc >= n then acc
    else go (acc @ Exec.Pool.poll pool)
  in
  go []

let test_pool_submit_poll () =
  let pool =
    Exec.Pool.create ~jobs:2 ~worker:(fun n -> n * n) ()
  in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      let tickets =
        List.init 5 (fun i -> (Exec.Pool.submit pool i, i))
      in
      let completions = drain_pool pool 5 in
      Alcotest.(check int) "all jobs complete" 5 (List.length completions);
      Alcotest.(check int) "nothing pending" 0 (Exec.Pool.pending pool);
      List.iter
        (fun (c : int Exec.Pool.completion) ->
          let i = List.assoc c.Exec.Pool.c_ticket tickets in
          match c.Exec.Pool.c_result with
          | Ok v -> Alcotest.(check int) "squared" (i * i) v
          | Error m -> Alcotest.failf "job %d failed: %s" i m)
        completions)

let test_pool_cancel () =
  (* one worker, slow jobs: the second stays queued long enough to cancel *)
  let pool =
    Exec.Pool.create ~jobs:1
      ~worker:(fun p ->
        ignore (Unix.select [] [] [] 0.2);
        p)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      let t1 = Exec.Pool.submit pool 1 in
      let t2 = Exec.Pool.submit pool 2 in
      (* t1 was dispatched immediately; t2 is waiting for the worker *)
      Alcotest.(check int) "one queued" 1 (Exec.Pool.queued pool);
      (match Exec.Pool.cancel pool t2 with
      | `Cancelled_queued -> ()
      | `Cancelled_running -> Alcotest.fail "t2 should still be queued"
      | `Not_found -> Alcotest.fail "t2 unknown");
      (match Exec.Pool.cancel pool t1 with
      | `Cancelled_running -> ()
      | `Cancelled_queued -> Alcotest.fail "t1 should be running"
      | `Not_found -> Alcotest.fail "t1 unknown");
      Alcotest.(check int) "nothing pending after cancels" 0
        (Exec.Pool.pending pool);
      (* a cancelled pool still runs new jobs (worker was respawned) *)
      let t3 = Exec.Pool.submit pool 3 in
      let cs = drain_pool pool 1 in
      match cs with
      | [ { Exec.Pool.c_ticket; c_result = Ok v } ] ->
          Alcotest.(check int) "ticket" t3 c_ticket;
          Alcotest.(check int) "value" 3 v
      | _ -> Alcotest.fail "expected exactly the third job's completion")

let test_pool_poison_pill () =
  let pool =
    Exec.Pool.create ~jobs:2 ~max_retries:10 ~poison_threshold:3
      ~retry_backoff:0.005 ~respawn_backoff:0.005 ~backoff_seed:3
      ~worker:arith_worker ()
  in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      (* a job that kills every worker it touches must be failed with a
         diagnostic after [poison_threshold] crashes, not crash-loop *)
      ignore (Exec.Pool.submit pool ~batch:"pp" Crash);
      (match drain_pool pool 1 with
      | [ { Exec.Pool.c_result = Error m; _ } ] ->
          Alcotest.(check bool)
            ("diagnostic names the poison pill: " ^ m)
            true
            (contains m "poison-pill")
      | _ -> Alcotest.fail "expected exactly one poisoned completion");
      let h = Exec.Pool.health pool in
      Alcotest.(check int) "one poisoned batch" 1 h.Exec.Pool.h_poisoned;
      Alcotest.(check bool)
        "ledger crossed the threshold" true
        (h.Exec.Pool.h_crashes >= 3);
      Alcotest.(check (list string))
        "batch named" [ "pp" ]
        (Exec.Pool.poisoned_batches pool);
      (* the same batch now fails fast, without touching a worker *)
      ignore (Exec.Pool.submit pool ~batch:"pp" (N 1));
      (match drain_pool pool 1 with
      | [ { Exec.Pool.c_result = Error m; _ } ] ->
          Alcotest.(check bool)
            "resubmission fails fast" true
            (contains m "poison-pill")
      | _ -> Alcotest.fail "expected a fast failure");
      (* the pool healed: other batches still compute *)
      ignore (Exec.Pool.submit pool ~batch:"ok" (N 21));
      match drain_pool pool 1 with
      | [ { Exec.Pool.c_result = Ok v; _ } ] ->
          Alcotest.(check int) "healthy batch unharmed" 42 v
      | _ -> Alcotest.fail "expected a healthy completion")

let test_pool_backoff_and_health () =
  let pool =
    Exec.Pool.create ~jobs:1 ~max_retries:3 ~retry_backoff:0.005
      ~respawn_backoff:0.005 ~backoff_seed:42 ~worker:arith_worker ()
  in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      ignore (Exec.Pool.submit pool ~batch:"bk" Crash);
      (match drain_pool pool 1 with
      | [ { Exec.Pool.c_result = Error m; _ } ] ->
          Alcotest.(check bool)
            ("crash row counts all attempts: " ^ m)
            true
            (contains m "after 4 attempt(s)")
      | _ -> Alcotest.fail "expected one failed completion");
      (* three retries with exponential backoff (jitter is [0.5,1.5)):
         the delays sum to at least ~base/2 + base + 2*base, so the
         whole run cannot be instantaneous *)
      Alcotest.(check bool)
        "retries were delayed, not hot-looped" true
        (Unix.gettimeofday () -. t0 >= 0.012);
      let h = Exec.Pool.health pool in
      Alcotest.(check int) "one worker configured" 1 h.Exec.Pool.h_workers;
      Alcotest.(check int) "four crashes" 4 h.Exec.Pool.h_crashes;
      (* the final crash's respawn may still be deferred behind its
         backoff here, so only the first three are guaranteed *)
      Alcotest.(check bool) "respawns counted" true (h.Exec.Pool.h_respawns >= 3);
      (* the slot respawned: the pool still works *)
      ignore (Exec.Pool.submit pool (N 4));
      (match drain_pool pool 1 with
      | [ { Exec.Pool.c_result = Ok _; _ } ] -> ()
      | _ -> Alcotest.fail "pool did not heal");
      Alcotest.(check int)
        "slot alive again" 1 (Exec.Pool.health pool).Exec.Pool.h_alive)

let test_pool_chaos_kill () =
  let pool =
    Exec.Pool.create ~jobs:1 ~max_retries:2 ~retry_backoff:0.005
      ~respawn_backoff:0.005
      ~worker:(fun p ->
        ignore (Unix.select [] [] [] 0.2);
        p)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check bool)
        "nothing to kill on an idle pool" false
        (Exec.Pool.chaos_kill pool 0);
      ignore (Exec.Pool.submit pool 9);
      ignore (Exec.Pool.poll ~timeout:0.02 pool);
      Alcotest.(check bool)
        "killed the busy worker" true
        (Exec.Pool.chaos_kill pool 0);
      (* the SIGKILL flows through the ordinary crash machinery: the
         job is retried on a respawned worker and still completes *)
      match drain_pool pool 1 with
      | [ { Exec.Pool.c_result = Ok v; _ } ] ->
          Alcotest.(check int) "retried to completion" 9 v;
          let h = Exec.Pool.health pool in
          Alcotest.(check bool) "crash detected" true (h.Exec.Pool.h_crashes >= 1);
          Alcotest.(check bool) "respawned" true (h.Exec.Pool.h_respawns >= 1)
      | [ { Exec.Pool.c_result = Error m; _ } ] ->
          Alcotest.failf "job lost to the kill: %s" m
      | _ -> Alcotest.fail "expected exactly one completion")

(* ------------------------------------------------------------------ *)
(* Parallel experiment rows / bench JSON                               *)

let bench_json rows =
  Minijson.encode
    (Minijson.list (List.map Experiments.row_to_json rows))

let test_run_all_parallel_identity () =
  let benches = [ Benchsuite.Suite.find "fir"; Benchsuite.Suite.find "fsed" ] in
  let with_fresh_cache f =
    Experiments.clear_cache ();
    Fun.protect ~finally:Experiments.clear_cache f
  in
  let seq =
    with_fresh_cache (fun () ->
        bench_json (Experiments.run_all ~jobs:1 ~benches ~move_latency:5 ()))
  in
  let par =
    with_fresh_cache (fun () ->
        bench_json (Experiments.run_all ~jobs:4 ~benches ~move_latency:5 ()))
  in
  Alcotest.(check string) "-j 4 rows byte-identical to -j 1" seq par

(* Values a JSON wire cannot carry (non-finite floats, a negative zero,
   a NaN payload) cross the pipe both ways and come back bit for bit:
   the worker echoes its payload and adds values of its own. *)
type floats = { label : string; values : float list; inner : floats option }

let test_map_exact_values () =
  let specials =
    [ nan; infinity; neg_infinity; -0.0; 0.1;
      Int64.float_of_bits 0x7FF8000000000123L ]
  in
  let value label =
    { label; values = specials;
      inner = Some { label = label ^ "/inner"; values = List.rev specials;
                     inner = None } }
  in
  let float_bits = List.map (fun x -> Int64.to_string (Int64.bits_of_float x)) in
  let rec bits r =
    (r.label :: float_bits r.values)
    @ match r.inner with Some r -> bits r | None -> []
  in
  let js = List.map (fun b -> Exec.job ~batch:b (value b)) [ "a"; "b" ] in
  let run jobs =
    Exec.map ~jobs ~worker:(fun r -> (r, List.map Float.neg r.values)) js
    |> Array.to_list
    |> List.concat_map (function
         | Ok (r, negated) -> bits r @ float_bits negated
         | Error m -> [ "error:" ^ m ])
  in
  Alcotest.(check (list string)) "pooled bits equal inline bits" (run 1) (run 2)

let test_fuzz_parallel_identity () =
  let run jobs =
    let s = Gdp_fuzz.Fuzz.campaign ~jobs ~latencies:[ 5 ] ~seed:0 ~count:6 () in
    ( s.Gdp_fuzz.Fuzz.programs,
      List.map
        (fun ((m : Gdp_fuzz.Fuzz.mismatch), _) ->
          Fmt.str "%a" Gdp_fuzz.Fuzz.pp_mismatch m)
        s.Gdp_fuzz.Fuzz.mismatches )
  in
  let programs_seq, mm_seq = run 1 in
  let programs_par, mm_par = run 3 in
  Alcotest.(check int) "same program count" programs_seq programs_par;
  Alcotest.(check (list string)) "same mismatches" mm_seq mm_par

(* ------------------------------------------------------------------ *)
(* Pipeline.run over the method layer, and cache clearers              *)

(* [run] builds the context from the settings' machine and prices the
   method exactly as [Methods.run] then [Methods.evaluate] do *)
let test_run_wraps_evaluate () =
  let b = Benchsuite.Suite.find "fir" in
  let s = Settings.default Methods.Gdp in
  let p = Pipeline.prepare_default b in
  let ctx = Pipeline.context ~machine:(Settings.machine s) p in
  let report = Methods.evaluate ctx (Methods.run Methods.Gdp ctx) in
  (match Pipeline.run ~prepared:p s with
  | Ok (Pipeline.Evaluated e') ->
      Alcotest.(check int)
        "same cycles as Methods.evaluate" report.Vliw_sched.Perf.total_cycles
        e'.Pipeline.report.Vliw_sched.Perf.total_cycles
  | Ok (Pipeline.Degraded _) -> Alcotest.fail "Plain mode cannot degrade"
  | Error m -> Alcotest.failf "run failed: %s" m);
  (match Pipeline.run s with
  | Error m ->
      Alcotest.(check bool)
        "missing input is a clean error" true
        (contains m "prepared" || contains m "ctx")
  | Ok _ -> Alcotest.fail "run without inputs must fail");
  match Pipeline.run ~prepared:p ~mode:(Pipeline.Robust { verify = true }) s with
  | Ok (Pipeline.Degraded r) ->
      Alcotest.(check string)
        "robust mode reaches the method" "gdp"
        (Methods.to_string r.Pipeline.used)
  | Ok (Pipeline.Evaluated _) -> Alcotest.fail "Robust mode must return Degraded"
  | Error m -> Alcotest.failf "robust run failed: %s" m

let suite =
  [
    Alcotest.test_case "map: pool matches inline" `Quick
      test_map_pool_matches_inline;
    Alcotest.test_case "map: job errors identical" `Quick
      test_map_job_error_identical;
    Alcotest.test_case "map: crash retried then reported" `Quick
      test_map_crash_retried_then_reported;
    Alcotest.test_case "map: telemetry accounting" `Quick
      test_map_telemetry_accounting;
    Alcotest.test_case "clamp_jobs" `Quick test_clamp_jobs;
    test_settings_roundtrip;
    Alcotest.test_case "settings: rejections" `Quick test_settings_rejections;
    Alcotest.test_case "settings: unknown fields rejected" `Quick
      test_settings_unknown_fields;
    Alcotest.test_case "settings: version handling" `Quick
      test_settings_version;
    Alcotest.test_case "pool: submit/poll" `Quick test_pool_submit_poll;
    Alcotest.test_case "pool: cancel queued and running" `Quick
      test_pool_cancel;
    Alcotest.test_case "pool: poison-pill ledger" `Quick test_pool_poison_pill;
    Alcotest.test_case "pool: backoff and health" `Quick
      test_pool_backoff_and_health;
    Alcotest.test_case "pool: chaos kill" `Quick test_pool_chaos_kill;
    Alcotest.test_case "experiments: -j 4 rows identical" `Slow
      test_run_all_parallel_identity;
    Alcotest.test_case "map: values JSON cannot carry, bit for bit" `Quick
      test_map_exact_values;
    Alcotest.test_case "fuzz: parallel campaign identical" `Slow
      test_fuzz_parallel_identity;
    Alcotest.test_case "pipeline: run wraps evaluate" `Quick
      test_run_wraps_evaluate;
  ]
