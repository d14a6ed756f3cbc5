(** The Par task-pool layer and the intra-compile parallelism built on
    it: pool semantics and error contract, domain-safety of the shared
    telemetry and pipeline caches, and the determinism contract of the
    partitioning paths — results never depend on how many domains
    execute them, nor on whether a pool is given at all. *)

module P = Graphpart.Partitioner
module G = Graphpart.Graph
module Methods = Partition.Methods
module Pipeline = Gdp_core.Pipeline

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                      *)

let test_pool_semantics () =
  Par.with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "size 1" 1 (Par.size pool));
  Par.with_pool ~domains:4 (fun pool ->
      (* default width is capped by the machine, never above the ask *)
      Alcotest.(check bool) "default width within request" true
        (Par.size pool >= 1 && Par.size pool <= 4));
  (* explicit workers force the width, up to the request *)
  Par.with_pool ~workers:4 ~domains:4 (fun pool ->
      if Par.backend = "domains" then
        Alcotest.(check int) "explicit width honoured" 4 (Par.size pool)
      else Alcotest.(check int) "seq size 1" 1 (Par.size pool));
  Par.with_pool ~workers:2 ~domains:8 (fun pool ->
      Alcotest.(check bool) "cap bounds size" true (Par.size pool <= 2))

let test_map_for_chunks () =
  Par.with_pool ~workers:4 ~domains:4 (fun pool ->
      let squares = Par.map pool ~n:100 (fun i -> i * i) in
      Alcotest.(check bool) "map lands by index" true
        (squares = Array.init 100 (fun i -> i * i));
      let hits = Array.make 1000 0 in
      Par.parallel_for pool ~n:1000 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "parallel_for covers each index once" true
        (Array.for_all (fun h -> h = 1) hits);
      (* a size that does not divide evenly into chunks *)
      let hits = Array.make 1001 0 in
      Par.parallel_chunks pool ~n:1001 (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check bool) "parallel_chunks covers each index once" true
        (Array.for_all (fun h -> h = 1) hits);
      Par.parallel_for pool ~n:0 (fun _ -> assert false);
      Par.parallel_chunks pool ~n:0 (fun _ _ -> assert false);
      Alcotest.(check bool) "empty map" true
        (Par.map pool ~n:0 (fun _ -> assert false) = [||]))

let test_exception_contract () =
  Par.with_pool ~workers:4 ~domains:4 (fun pool ->
      let ran = Array.make 64 false in
      match
        Par.parallel_for pool ~n:64 (fun i ->
            ran.(i) <- true;
            if i mod 7 = 3 then failwith (string_of_int i))
      with
      | () -> Alcotest.fail "expected the body's exception to propagate"
      | exception Failure msg ->
          Alcotest.(check string) "lowest failing index wins" "3" msg;
          if Par.backend = "domains" then
            Alcotest.(check bool) "every index still ran" true
              (Array.for_all Fun.id ran))

let test_nested_runs_inline () =
  Par.with_pool ~workers:4 ~domains:4 (fun pool ->
      let totals =
        Par.map pool ~n:8 (fun i ->
            (* re-entering the pool from a body must run inline — a
               deadlock here would hang the whole suite *)
            let s = ref 0 in
            Par.parallel_for pool ~n:100 (fun j -> s := !s + j + i);
            !s)
      in
      Alcotest.(check bool) "nested results correct" true
        (Array.to_list totals
        = List.init 8 (fun i -> (100 * 99 / 2) + (100 * i))))

let test_lock_stress () =
  Par.with_pool ~workers:4 ~domains:4 (fun pool ->
      let lock = Par.Lock.create () in
      let counter = ref 0 in
      Par.parallel_for pool ~n:10_000 (fun _ ->
          Par.Lock.with_lock lock (fun () -> incr counter));
      Alcotest.(check int) "no lost updates under the lock" 10_000 !counter)

(* ------------------------------------------------------------------ *)
(* Domain-safety of the shared state the compile pipeline touches      *)

let test_telemetry_stress () =
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.reset ();
      Telemetry.disable ())
  @@ fun () ->
  (* each body's span result lands in its own slot and is checked after
     the pool closes: Alcotest's output formatter is not domain-safe *)
  let span_results = Array.make 4_000 0 in
  Par.with_pool ~workers:4 ~domains:4 (fun pool ->
      Par.parallel_for pool ~n:4_000 (fun i ->
          Telemetry.incr "par.test.counter";
          Telemetry.observe "par.test.hist" (float_of_int (i mod 97));
          Telemetry.set_gauge "par.test.gauge" (float_of_int i);
          (* spans from worker domains are dropped, not corrupted *)
          span_results.(i) <- Telemetry.with_span "par.test.span" (fun () -> 7)));
  Array.iter (Alcotest.(check int) "span body result" 7) span_results;
  Alcotest.(check int) "counter lost no updates" 4_000
    (Telemetry.counter_value "par.test.counter");
  let snap = Telemetry.snapshot () in
  match List.assoc_opt "par.test.hist" snap.Telemetry.hists with
  | None -> Alcotest.fail "histogram missing from the snapshot"
  | Some h ->
      Alcotest.(check int) "histogram lost no observations" 4_000
        h.Telemetry.h_count;
      Alcotest.(check int) "buckets sum to the count" 4_000
        (Array.fold_left ( + ) 0 h.Telemetry.h_buckets)

let test_winhist_stress () =
  (* the metrics plane mutates Winhist from whichever context handles a
     request; every mutation is guarded by the instance's Par.Lock, so
     concurrent observers must lose nothing *)
  let clock () = 0. in
  let h = Telemetry.Winhist.create ~clock () in
  Par.with_pool ~workers:4 ~domains:4 (fun pool ->
      Par.parallel_for pool ~n:8_000 (fun i ->
          Telemetry.Winhist.observe h (float_of_int (1 + (i mod 500)))));
  Alcotest.(check int) "no lost observations" 8_000
    (Telemetry.Winhist.count h);
  (* a consistent merged read under no contention afterwards *)
  match Telemetry.Winhist.quantiles h [ 0.5; 0.99 ] with
  | [ p50; p99 ] ->
      Alcotest.(check bool) "p50 sane" true (p50 > 0. && p50 <= 500. *. 1.1);
      Alcotest.(check bool) "p99 >= p50" true (p99 >= p50)
  | _ -> Alcotest.fail "quantiles arity"

let test_clear_caches_concurrent () =
  let hits = Atomic.make 0 in
  Pipeline.register_cache_clearer ~key:"test-par-clearer" (fun () ->
      Atomic.incr hits);
  (* hammer clear_caches from every domain: no deadlock (the clearer
     list is snapshotted, clearers run outside the lock) and no torn
     registry state afterwards *)
  Par.with_pool ~workers:4 ~domains:4 (fun pool ->
      Par.parallel_for pool ~n:64 (fun _ -> Pipeline.clear_caches ()));
  let before = Atomic.get hits in
  Pipeline.clear_caches ();
  Alcotest.(check bool) "clearer ran under contention" true (before > 0);
  Alcotest.(check bool) "registry intact after the stress" true
    (Atomic.get hits > before)

(* ------------------------------------------------------------------ *)
(* Partitioner determinism: same answer for any domain count, and the
   same without a pool                                                 *)

let par_bisect ?config ?workers ~domains g =
  Par.with_pool ?workers ~domains (fun pool -> P.bisect ?config ~pool g)

let prop_par_bisect_domain_invariant =
  Helpers.qcheck ~count:40
    "parallel bisection is identical for 2 and 4 domains at any width"
    (fun (_, ncon, weights, edges) ->
      let g = G.create ~ncon ~weights ~edges in
      let p2 = par_bisect ~domains:2 g in
      Array.for_all (fun p -> p = 0 || p = 1) p2
      && par_bisect ~domains:2 g = p2
      && par_bisect ~domains:4 g = p2
      && par_bisect ~domains:1 g = p2
      && P.bisect g = p2
      (* execution width must never leak into the answer *)
      && par_bisect ~workers:1 ~domains:4 g = p2
      && par_bisect ~workers:4 ~domains:4 g = p2)
    Test_graphpart.arbitrary_graph

let prop_par_multi_seed_fm_deterministic =
  Helpers.qcheck ~count:40
    "multi-seed FM (8 seeds) picks the same winner for 2 and 4 domains"
    (fun (_, ncon, weights, edges) ->
      let g = G.create ~ncon ~weights ~edges in
      let config = { (P.default_config ~ncon) with P.fm_seeds = 8 } in
      let p2 = par_bisect ~config ~domains:2 g in
      par_bisect ~config ~domains:4 g = p2
      && P.bisect ~config g = p2
      (* and the extra seeds never worsen the objective *)
      && P.evaluate config g p2
         <= P.evaluate config g
              (par_bisect ~config:{ config with P.fm_seeds = 1 } ~domains:2 g))
    Test_graphpart.arbitrary_graph

(* every bisection in the recursion runs its starts and FM seeds as pool
   tasks, each with its own scratch: any scratch shared between tasks
   would make the answer depend on the interleaving *)
let prop_par_kway_domain_invariant =
  Helpers.qcheck ~count:25
    "parallel 4-way partition is domain-invariant, and 8-way, at 1, 2 and \
     4 domains and under one worker"
    (fun (_, ncon, weights, edges) ->
      let g = G.create ~ncon ~weights ~edges in
      List.for_all
        (fun nparts ->
          let inline = P.kway g ~nparts in
          let run ?workers domains =
            Par.with_pool ?workers ~domains (fun pool -> P.kway ~pool g ~nparts)
          in
          Array.for_all (fun p -> p >= 0 && p < nparts) inline
          && run 1 = inline
          && run 2 = inline
          && run 4 = inline
          && run ~workers:1 4 = inline)
        [ 4; 8 ])
    Test_graphpart.arbitrary_graph

(* ------------------------------------------------------------------ *)
(* End-to-end artifact identity through the full pipeline.  The
   service-layer artifact is the canonical rendering the gdpcd cache
   keys on, so "same bytes" here is exactly the determinism contract
   of docs/parallelism.md.                                             *)

let artifact ?par_workers ~par_domains ~move_latency method_ source =
  let settings =
    {
      (Pipeline.Settings.default method_) with
      Pipeline.Settings.machine =
        Machine_spec.of_legacy ~clusters:2 ~move_latency;
      par_domains;
    }
  in
  let job =
    {
      Service.Protocol.id = "par-test";
      source;
      input = Array.to_list Gen_minic.input;
      settings;
      deadline_ms = None;
      verify = false;
      trace_id = None;
    }
  in
  match Service.Protocol.evaluate_job ?par_workers job with
  | Ok doc -> Minijson.encode doc
  | Error m ->
      Alcotest.failf "evaluate_job (%s, par=%d) failed: %s"
        (Methods.to_string method_) par_domains m

let latency_of_seed seed = [| 1; 5; 10 |].(seed mod 3)

(* one method, byte for byte: par domains 1, 2 and 4, and 4 under a
   one-worker cap — capping the width must never change the artifact *)
let par_identical ~move_latency m source =
  let a1 = artifact ~par_domains:1 ~move_latency m source in
  artifact ~par_domains:2 ~move_latency m source = a1
  && artifact ~par_domains:4 ~move_latency m source = a1
  && artifact ~par_workers:1 ~par_domains:4 ~move_latency m source = a1

let prop_methods_par_identity =
  Helpers.qcheck ~count:3
    "unified/naive/profile-max artifacts are byte-identical for par \
     domains 1, 2 and 4"
    (fun seed ->
      let source = Gen_minic.gen_program_with_seed seed in
      let move_latency = latency_of_seed seed in
      List.for_all
        (fun m -> par_identical ~move_latency m source)
        [ Methods.Unified; Methods.Naive; Methods.Profile_max ])
    Gen_minic.arbitrary_program

(* GDP shares the driver of the other methods, so domains 1 must agree
   with 2 and 4 as well *)
let prop_gdp_par_deterministic =
  Helpers.qcheck ~count:3
    "gdp par artifacts are byte-identical for 2 and 4 domains and under \
     a worker cap"
    (fun seed ->
      let source = Gen_minic.gen_program_with_seed seed in
      par_identical ~move_latency:(latency_of_seed seed) Methods.Gdp source)
    Gen_minic.arbitrary_program

(* RHOP's estimator-work counters measure work, not scheduling: the
   same candidates are priced and the same levels recomputed however
   many domains partition the blocks *)
let test_rhop_counters_domain_invariant () =
  let ctx =
    Pipeline.context
      ~machine:(Helpers.preset_machine "mesh16")
      (Pipeline.prepare_default (Benchsuite.Suite.find "rawcaudio"))
  in
  let counters domains =
    let (_ : Methods.outcome), snap =
      Par.with_pool ~workers:domains ~domains (fun pool ->
          Telemetry.capture (fun () -> Methods.run ~pool Methods.Gdp ctx))
    in
    List.map
      (fun name ->
        Option.value ~default:0 (Telemetry.Snapshot.find_counter snap name))
      [ "rhop.candidates"; "rhop.relevels" ]
  in
  let one = counters 1 in
  Alcotest.(check bool) "work counted" true (List.for_all (fun v -> v > 0) one);
  Alcotest.(check (list int)) "same counts at 4 domains" one (counters 4)

let suite =
  [
    Alcotest.test_case "pool semantics" `Quick test_pool_semantics;
    Alcotest.test_case "map/for/chunks cover exactly once" `Quick
      test_map_for_chunks;
    Alcotest.test_case "exception contract" `Quick test_exception_contract;
    Alcotest.test_case "nested calls run inline" `Quick
      test_nested_runs_inline;
    Alcotest.test_case "lock stress" `Quick test_lock_stress;
    Alcotest.test_case "telemetry stress under domains" `Quick
      test_telemetry_stress;
    Alcotest.test_case "winhist stress under domains" `Quick
      test_winhist_stress;
    Alcotest.test_case "clear_caches under domains" `Quick
      test_clear_caches_concurrent;
    prop_par_bisect_domain_invariant;
    prop_par_multi_seed_fm_deterministic;
    prop_par_kway_domain_invariant;
    prop_methods_par_identity;
    prop_gdp_par_deterministic;
    Alcotest.test_case "rhop work counters are domain-invariant" `Quick
      test_rhop_counters_domain_invariant;
  ]
