(** Robustness layer: the fault-injection registry, [Pipeline.verify]
    failure paths, graceful degradation along the method chain,
    crash-safe experiment sweeps and the differential fuzzing harness. *)

module Methods = Partition.Methods
module Pipeline = Gdp_core.Pipeline

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(** Arm [spec], run [f], always disarm (the fault registry is global
    state shared by every test in this binary). *)
let with_injection ?seed spec f =
  (match Fault.parse_spec spec with
  | Ok sp -> Fault.arm ?seed sp
  | Error m -> Alcotest.failf "bad spec %S: %s" spec m);
  Fun.protect ~finally:Fault.disarm f

let prepared_ctx ?(move_latency = 5) name =
  let b = Benchsuite.Suite.find name in
  let p = Pipeline.prepare b in
  let machine = Vliw_machine.paper_machine ~move_latency () in
  (p, Pipeline.context ~machine p)

(* [Pipeline.run] in [Robust] mode with full verification *)
let robust p ctx method_ =
  match
    Pipeline.run ~prepared:p ~ctx
      ~mode:(Pipeline.Robust { verify = true })
      (Pipeline.Settings.default method_)
  with
  | Ok (Pipeline.Degraded r) -> Ok r
  | Ok (Pipeline.Evaluated _) -> Alcotest.fail "Robust mode returned Evaluated"
  | Error m -> Error m

let expect_error ~substr = function
  | Ok _ -> Alcotest.failf "expected a verification failure (%s)" substr
  | Error m ->
      if not (contains m substr) then
        Alcotest.failf "expected %S in error %S" substr m

(* ------------------------------------------------------------------ *)
(* Fault registry and spec language                                    *)

let test_parse_spec () =
  (match Fault.parse_spec "move.drop" with
  | Ok sp ->
      Alcotest.(check bool)
        "default trigger is @1" true
        (Fault.spec_entries sp = [ ("move.drop", Fault.Nth 1) ])
  | Error m -> Alcotest.failf "move.drop: %s" m);
  (match Fault.parse_spec "sched.overbook@*" with
  | Ok sp ->
      Alcotest.(check bool)
        "@* is Always" true
        (Fault.spec_entries sp = [ ("sched.overbook", Fault.Always) ])
  | Error m -> Alcotest.failf "sched.overbook@*: %s" m);
  (match Fault.parse_spec "service.worker.kill@4*" with
  | Ok sp ->
      Alcotest.(check bool)
        "@4* is Every 4" true
        (Fault.spec_entries sp = [ ("service.worker.kill", Fault.Every 4) ])
  | Error m -> Alcotest.failf "service.worker.kill@4*: %s" m);
  (match Fault.parse_spec "partition.infeasible, sim.move-latency@3" with
  | Ok sp ->
      Alcotest.(check int) "two entries" 2 (List.length (Fault.spec_entries sp))
  | Error m -> Alcotest.failf "two-entry spec: %s" m);
  (* every documented point parses under its own name *)
  List.iter
    (fun (p : Fault.point) ->
      match Fault.parse_spec p.Fault.name with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "point %s rejected: %s" p.Fault.name m)
    Fault.points;
  let expect_parse_error ~substr s =
    match Fault.parse_spec s with
    | Ok _ -> Alcotest.failf "spec %S should be rejected" s
    | Error m ->
        if not (contains m substr) then
          Alcotest.failf "spec %S: expected %S in %S" s substr m
  in
  expect_parse_error ~substr:"unknown injection point" "nope";
  expect_parse_error ~substr:"bad trigger" "move.drop@0";
  expect_parse_error ~substr:"bad trigger" "move.drop@0*";
  expect_parse_error ~substr:"bad trigger" "move.drop@x";
  expect_parse_error ~substr:"empty" ""

let test_trigger_semantics () =
  with_injection "move.drop@3" (fun () ->
      let fires = List.init 5 (fun _ -> Fault.fire "move.drop") in
      Alcotest.(check (list bool))
        "Nth 3 fires exactly once, on the third opportunity"
        [ false; false; true; false; false ]
        fires;
      Alcotest.(check int) "one injection" 1 (Fault.counts ()).Fault.injected;
      Alcotest.(check bool)
        "unmentioned point never fires" false (Fault.fire "move.dup"));
  with_injection "sched.overbook@*" (fun () ->
      Alcotest.(check (list bool))
        "Always fires every time"
        [ true; true; true ]
        (List.init 3 (fun _ -> Fault.fire "sched.overbook"));
      Alcotest.(check int) "three injections" 3
        (Fault.counts ()).Fault.injected);
  with_injection "move.drop@2*" (fun () ->
      Alcotest.(check (list bool))
        "Every 2 fires on each even opportunity"
        [ false; true; false; true; false; true ]
        (List.init 6 (fun _ -> Fault.fire "move.drop"));
      Alcotest.(check int) "three periodic injections" 3
        (Fault.counts ()).Fault.injected);
  Alcotest.(check bool) "disarmed never fires" false (Fault.fire "move.drop")

let test_rand_deterministic () =
  let draws () =
    with_injection ~seed:42 "sim.move-latency@*" (fun () ->
        List.init 8 (fun _ -> Fault.rand "sim.move-latency" 100))
  in
  Alcotest.(check (list int)) "same (spec, seed) => same draws" (draws ())
    (draws ());
  List.iter
    (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 100))
    (draws ());
  Alcotest.(check int) "disarmed rand is 0" 0 (Fault.rand "sim.move-latency" 100)

let test_counts_ledger () =
  with_injection "move.drop" (fun () ->
      Alcotest.(check bool)
        "arming resets counters" true
        (Fault.counts () = { Fault.injected = 0; detected = 0; recovered = 0 });
      Fault.note_detected ();
      Fault.note_detected ();
      Fault.note_recovered ();
      let c = Fault.counts () in
      Alcotest.(check int) "detected" 2 c.Fault.detected;
      Alcotest.(check int) "recovered" 1 c.Fault.recovered;
      Fault.reset_counts ();
      Alcotest.(check int) "reset" 0 (Fault.counts ()).Fault.detected)

(* ------------------------------------------------------------------ *)
(* Pipeline.verify failure paths (satellite: each distinct Error
   branch must be reachable with its expected message)                 *)

let test_verify_clustered_interp_failure () =
  (* starve the clustered run of its input: in(i) must fail *)
  let p, ctx = prepared_ctx "fir" in
  let e = Helpers.evaluate ctx Methods.Gdp in
  let starved =
    {
      p with
      Pipeline.bench =
        { p.Pipeline.bench with Benchsuite.Bench_intf.input = [||] };
    }
  in
  expect_error ~substr:"clustered interpretation failed"
    (Pipeline.verify starved ctx e)

let test_verify_clustered_output_mismatch () =
  (* drop every intercluster move during evaluation: consumers read
     stale shadow registers, so the clustered interpretation diverges *)
  let p, ctx = prepared_ctx "fir" in
  let e =
    with_injection "move.drop@*" (fun () -> Helpers.evaluate ctx Methods.Gdp)
  in
  expect_error ~substr:"clustered interpretation outputs differ"
    (Pipeline.verify p ctx e)

let test_verify_sim_capacity_violation () =
  (* overbook the clustered program's schedule, which the evaluation
     builds and the simulator executes: the simulator's per-cycle
     resource check must reject it *)
  let p, ctx = prepared_ctx "fir" in
  let e =
    with_injection "sched.overbook@*" (fun () ->
        let e = Helpers.evaluate ctx Methods.Gdp in
        Alcotest.(check bool)
          "capacity faults were injected" true
          ((Fault.counts ()).Fault.injected > 0);
        e)
  in
  expect_error ~substr:"cycle simulation failed" (Pipeline.verify p ctx e)

let test_verify_sim_output_mismatch () =
  (* corrupt every intercluster move's value inside the simulator *)
  let p, ctx = prepared_ctx "fir" in
  let e = Helpers.evaluate ctx Methods.Gdp in
  with_injection "sim.move-value@*" (fun () ->
      expect_error ~substr:"cycle simulation outputs differ"
        (Pipeline.verify p ctx e))

let test_verify_sim_latency_violation () =
  (* stretch the first intercluster transfer past its nominal latency:
     its consumer, scheduled against the nominal latency, reads the
     register while the write is still in flight, and the simulator's
     latency checker must name the stale read *)
  let p, ctx = prepared_ctx "fir" in
  let e = Helpers.evaluate ctx Methods.Gdp in
  with_injection "sim.move-latency@1" (fun () ->
      let r = Pipeline.verify p ctx e in
      expect_error ~substr:"latency violation" r;
      expect_error ~substr:"but a write issued at" r)

let test_verify_cycle_model_disagreement () =
  let p, ctx = prepared_ctx "fir" in
  let e = Helpers.evaluate ctx Methods.Gdp in
  let bumped =
    {
      e with
      Pipeline.report =
        {
          e.Pipeline.report with
          Vliw_sched.Perf.total_cycles =
            e.Pipeline.report.Vliw_sched.Perf.total_cycles + 1;
        };
    }
  in
  expect_error ~substr:"simulated cycles" (Pipeline.verify p ctx bumped);
  expect_error ~substr:"disagree with the static model"
    (Pipeline.verify p ctx bumped)

let test_verify_move_model_disagreement () =
  let p, ctx = prepared_ctx "fir" in
  let e = Helpers.evaluate ctx Methods.Gdp in
  let bumped =
    {
      e with
      Pipeline.report =
        {
          e.Pipeline.report with
          Vliw_sched.Perf.dynamic_moves =
            e.Pipeline.report.Vliw_sched.Perf.dynamic_moves + 1;
        };
    }
  in
  expect_error ~substr:"simulated moves" (Pipeline.verify p ctx bumped)

let test_verify_corrupt_assignment_detected () =
  (* hand-corrupt the cluster assignment of one compute op in a
     finished evaluation: the structural validator (the detection layer
     [Pipeline.run]'s [Checked] mode runs) must reject it — a register
     web now spans clusters, or a memory op left its objects' home
     cluster *)
  let _, ctx = prepared_ctx "fir" in
  let e = Helpers.evaluate ctx Methods.Gdp in
  let c = e.Pipeline.outcome.Methods.clustered in
  let routes = c.Vliw_sched.Move_insert.move_routes in
  let nclusters = Vliw_machine.num_clusters ctx.Methods.machine in
  let caught = ref false in
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          List.iter
            (fun op ->
              let op_id = Vliw_ir.Op.id op in
              if (not !caught) && not (Hashtbl.mem routes op_id) then begin
                let a = Vliw_sched.Assignment.copy
                    c.Vliw_sched.Move_insert.cassign in
                match Vliw_sched.Assignment.cluster_of_opt a ~op_id with
                | None -> ()
                | Some cur ->
                    Vliw_sched.Assignment.set_cluster a ~op_id
                      ((cur + 1) mod nclusters);
                    (try
                       Vliw_sched.Assignment.validate a
                         c.Vliw_sched.Move_insert.cprog
                         ~objects_of:(Methods.objects_of ctx)
                     with Vliw_sched.Assignment.Invalid _ -> caught := true)
              end)
            (Vliw_ir.Block.ops b))
        (Vliw_ir.Func.blocks f))
    (Vliw_ir.Prog.funcs c.Vliw_sched.Move_insert.cprog);
  Alcotest.(check bool)
    "some single-op reassignment violates an invariant" true !caught

(* ------------------------------------------------------------------ *)
(* Simulator fault paths                                               *)

(* Recorded before the simulator planned its commits at decode time:
   [Pipeline.verify]'s result for fir, mpeg2dec and viterbi under every
   method on the paper machine, with one simulator fault armed (seed 0):
   transfers stretched past their latency at the 1st, 5th, 7th or every
   opportunity, or the 2nd transfer's value corrupted.  "ok" is a fault
   that never reached an output or a checked read. *)
let pinned_sim_faults =
  [
    ("fir", "gdp", "sim.move-latency@1",
     "cycle simulation failed: latency violation: main/bb5 reads r253 at cycle 10 but a write issued at 3 completes at 11");
    ("fir", "gdp", "sim.move-latency@5",
     "cycle simulation failed: latency violation: main/bb5 reads r255 at cycle 12 but a write issued at 7 completes at 15");
    ("fir", "gdp", "sim.move-latency@7",
     "cycle simulation failed: latency violation: main/bb5 reads r259 at cycle 15 but a write issued at 9 completes at 17");
    ("fir", "gdp", "sim.move-latency@*",
     "cycle simulation failed: latency violation: main/bb5 reads r252 at cycle 10 but a write issued at 5 completes at 12");
    ("fir", "gdp", "sim.move-value@2",
     "ok");
    ("fir", "profile-max", "sim.move-latency@1",
     "cycle simulation failed: latency violation: main/bb5 reads r253 at cycle 10 but a write issued at 3 completes at 11");
    ("fir", "profile-max", "sim.move-latency@5",
     "cycle simulation failed: latency violation: main/bb5 reads r255 at cycle 12 but a write issued at 7 completes at 15");
    ("fir", "profile-max", "sim.move-latency@7",
     "cycle simulation failed: latency violation: main/bb5 reads r259 at cycle 15 but a write issued at 9 completes at 17");
    ("fir", "profile-max", "sim.move-latency@*",
     "cycle simulation failed: latency violation: main/bb5 reads r252 at cycle 10 but a write issued at 5 completes at 12");
    ("fir", "profile-max", "sim.move-value@2",
     "ok");
    ("fir", "naive", "sim.move-latency@1",
     "ok");
    ("fir", "naive", "sim.move-latency@5",
     "cycle simulation failed: latency violation: main/bb5 reads r268 at cycle 11 but a write issued at 4 completes at 12");
    ("fir", "naive", "sim.move-latency@7",
     "ok");
    ("fir", "naive", "sim.move-latency@*",
     "cycle simulation failed: latency violation: main/bb5 reads r255 at cycle 6 but a write issued at 1 completes at 8");
    ("fir", "naive", "sim.move-value@2",
     "ok");
    ("fir", "unified", "sim.move-latency@1",
     "ok");
    ("fir", "unified", "sim.move-latency@5",
     "cycle simulation failed: latency violation: main/bb5 reads r257 at cycle 12 but a write issued at 7 completes at 15");
    ("fir", "unified", "sim.move-latency@7",
     "cycle simulation failed: latency violation: main/bb5 reads r256 at cycle 18 but a write issued at 13 completes at 21");
    ("fir", "unified", "sim.move-latency@*",
     "cycle simulation failed: latency violation: main/bb5 reads r257 at cycle 12 but a write issued at 7 completes at 15");
    ("fir", "unified", "sim.move-value@2",
     "cycle simulation outputs differ from the reference run");
    ("mpeg2dec", "gdp", "sim.move-latency@1",
     "ok");
    ("mpeg2dec", "gdp", "sim.move-latency@5",
     "cycle simulation failed: latency violation: main/bb2 reads r1678 at cycle 8 but a write issued at 1 completes at 9");
    ("mpeg2dec", "gdp", "sim.move-latency@7",
     "cycle simulation failed: latency violation: main/bb2 reads r1678 at cycle 8 but a write issued at 1 completes at 9");
    ("mpeg2dec", "gdp", "sim.move-latency@*",
     "cycle simulation failed: latency violation: main/bb2 reads r1678 at cycle 8 but a write issued at 1 completes at 9");
    ("mpeg2dec", "gdp", "sim.move-value@2",
     "cycle simulation failed: wild load at 0x1000c00");
    ("mpeg2dec", "profile-max", "sim.move-latency@1",
     "cycle simulation failed: latency violation: main/bb17 reads r1676 at cycle 6 but a write issued at 1 completes at 9");
    ("mpeg2dec", "profile-max", "sim.move-latency@5",
     "cycle simulation failed: latency violation: main/bb17 reads r1676 at cycle 6 but a write issued at 1 completes at 9");
    ("mpeg2dec", "profile-max", "sim.move-latency@7",
     "cycle simulation failed: latency violation: main/bb17 reads r1676 at cycle 6 but a write issued at 1 completes at 9");
    ("mpeg2dec", "profile-max", "sim.move-latency@*",
     "cycle simulation failed: latency violation: main/bb17 reads r1676 at cycle 6 but a write issued at 1 completes at 9");
    ("mpeg2dec", "profile-max", "sim.move-value@2",
     "cycle simulation outputs differ from the reference run");
    ("mpeg2dec", "naive", "sim.move-latency@1",
     "ok");
    ("mpeg2dec", "naive", "sim.move-latency@5",
     "ok");
    ("mpeg2dec", "naive", "sim.move-latency@7",
     "ok");
    ("mpeg2dec", "naive", "sim.move-latency@*",
     "cycle simulation failed: latency violation: main/bb17 reads r1677 at cycle 25 but a write issued at 20 completes at 27");
    ("mpeg2dec", "naive", "sim.move-value@2",
     "cycle simulation outputs differ from the reference run");
    ("mpeg2dec", "unified", "sim.move-latency@1",
     "ok");
    ("mpeg2dec", "unified", "sim.move-latency@5",
     "cycle simulation failed: latency violation: main/bb20 reads r1689 at cycle 10 but a write issued at 5 completes at 13");
    ("mpeg2dec", "unified", "sim.move-latency@7",
     "cycle simulation failed: latency violation: main/bb20 reads r1691 at cycle 12 but a write issued at 7 completes at 15");
    ("mpeg2dec", "unified", "sim.move-latency@*",
     "cycle simulation failed: latency violation: main/bb20 reads r1721 at cycle 7 but a write issued at 2 completes at 9");
    ("mpeg2dec", "unified", "sim.move-value@2",
     "cycle simulation outputs differ from the reference run");
    ("viterbi", "gdp", "sim.move-latency@1",
     "ok");
    ("viterbi", "gdp", "sim.move-latency@5",
     "cycle simulation failed: latency violation: main/bb8 reads r219 at cycle 35 but a write issued at 29 completes at 37");
    ("viterbi", "gdp", "sim.move-latency@7",
     "ok");
    ("viterbi", "gdp", "sim.move-latency@*",
     "cycle simulation failed: latency violation: main/bb8 reads r215 at cycle 28 but a write issued at 23 completes at 30");
    ("viterbi", "gdp", "sim.move-value@2",
     "ok");
    ("viterbi", "profile-max", "sim.move-latency@1",
     "ok");
    ("viterbi", "profile-max", "sim.move-latency@5",
     "ok");
    ("viterbi", "profile-max", "sim.move-latency@7",
     "ok");
    ("viterbi", "profile-max", "sim.move-latency@*",
     "cycle simulation failed: latency violation: main/bb8 reads r216 at cycle 7 but a write issued at 2 completes at 9");
    ("viterbi", "profile-max", "sim.move-value@2",
     "ok");
    ("viterbi", "naive", "sim.move-latency@1",
     "ok");
    ("viterbi", "naive", "sim.move-latency@5",
     "cycle simulation failed: latency violation: main/bb8 reads r218 at cycle 20 but a write issued at 15 completes at 23");
    ("viterbi", "naive", "sim.move-latency@7",
     "cycle simulation failed: latency violation: main/bb8 reads r221 at cycle 24 but a write issued at 19 completes at 27");
    ("viterbi", "naive", "sim.move-latency@*",
     "cycle simulation failed: latency violation: main/bb8 reads r214 at cycle 7 but a write issued at 2 completes at 9");
    ("viterbi", "naive", "sim.move-value@2",
     "ok");
    ("viterbi", "unified", "sim.move-latency@1",
     "ok");
    ("viterbi", "unified", "sim.move-latency@5",
     "ok");
    ("viterbi", "unified", "sim.move-latency@7",
     "cycle simulation failed: latency violation: main/bb8 reads r220 at cycle 22 but a write issued at 17 completes at 25");
    ("viterbi", "unified", "sim.move-latency@*",
     "cycle simulation failed: latency violation: main/bb8 reads r216 at cycle 8 but a write issued at 3 completes at 10");
    ("viterbi", "unified", "sim.move-value@2",
     "cycle simulation outputs differ from the reference run");
    ("rawcaudio", "naive", "sim.move-latency@8",
     "ok");
    ("rawcaudio", "naive", "sim.move-latency@17",
     "ok");
    ("rawcaudio", "unified", "sim.move-latency@7",
     "ok");
    ("rawcaudio", "unified", "sim.move-latency@16",
     "ok");
    ("rawdaudio", "naive", "sim.move-latency@5",
     "ok");
    ("rawdaudio", "unified", "sim.move-latency@8",
     "ok");
  ]

(* Recorded like [pinned_sim_faults], on the paper machine with a bus
   wide enough (64 transfers a cycle) for any schedule: each program
   scheduled as if its transfers took no time, then simulated at their
   real latency, with no fault, every transfer stretched, or the third.
   Consumers then read in the window of a write still in flight, which
   valid schedules never do; "-" is no fault. *)
let pinned_mistimed_sim =
  [
    ("mpeg2dec", "gdp", "-",
     "latency violation: main/bb20 reads r1681 at cycle 4 but a write issued at 2 completes at 7");
    ("mpeg2dec", "gdp", "sim.move-latency@*",
     "latency violation: main/bb2 reads r1679 at cycle 8 but a write issued at 2 completes at 10");
    ("mpeg2dec", "gdp", "sim.move-latency@3",
     "latency violation: main/bb2 reads r1678 at cycle 8 but a write issued at 1 completes at 9");
    ("mpeg2dec", "profile-max", "-",
     "wild load at 0x0");
    ("mpeg2dec", "profile-max", "sim.move-latency@*",
     "wild load at 0x0");
    ("mpeg2dec", "profile-max", "sim.move-latency@3",
     "wild load at 0x0");
    ("mpeg2dec", "naive", "-",
     "latency violation: main/bb20 reads r1770 at cycle 90 but a write issued at 86 completes at 91");
    ("mpeg2dec", "naive", "sim.move-latency@*",
     "latency violation: main/bb20 reads r1770 at cycle 90 but a write issued at 86 completes at 94");
    ("mpeg2dec", "naive", "sim.move-latency@3",
     "latency violation: main/bb20 reads r1770 at cycle 90 but a write issued at 86 completes at 91");
    ("mpeg2dec", "unified", "-",
     "latency violation: main/bb20 reads r1769 at cycle 90 but a write issued at 86 completes at 91");
    ("mpeg2dec", "unified", "sim.move-latency@*",
     "latency violation: main/bb20 reads r1769 at cycle 90 but a write issued at 86 completes at 94");
    ("mpeg2dec", "unified", "sim.move-latency@3",
     "latency violation: main/bb20 reads r1693 at cycle 8 but a write issued at 1 completes at 9");
    ("fir", "gdp", "-",
     "latency violation: main/bb5 reads r257 at cycle 7 but a write issued at 6 completes at 11");
    ("fir", "gdp", "sim.move-latency@*",
     "latency violation: main/bb5 reads r257 at cycle 7 but a write issued at 6 completes at 13");
    ("fir", "gdp", "sim.move-latency@3",
     "latency violation: main/bb5 reads r257 at cycle 7 but a write issued at 6 completes at 14");
    ("fir", "profile-max", "-",
     "wild load at 0x0");
    ("fir", "profile-max", "sim.move-latency@*",
     "wild load at 0x0");
    ("fir", "profile-max", "sim.move-latency@3",
     "wild load at 0x0");
    ("fir", "naive", "-",
     "latency violation: main/bb5 reads r255 at cycle 2 but a write issued at 1 completes at 6");
    ("fir", "naive", "sim.move-latency@*",
     "latency violation: main/bb5 reads r255 at cycle 2 but a write issued at 1 completes at 8");
    ("fir", "naive", "sim.move-latency@3",
     "latency violation: main/bb5 reads r255 at cycle 2 but a write issued at 1 completes at 6");
    ("fir", "unified", "-",
     "wild load at 0x0");
    ("fir", "unified", "sim.move-latency@*",
     "wild load at 0x0");
    ("fir", "unified", "sim.move-latency@3",
     "wild load at 0x0");
    ("viterbi", "gdp", "-",
     "latency violation: main/bb8 reads r216 at cycle 27 but a write issued at 25 completes at 30");
    ("viterbi", "gdp", "sim.move-latency@*",
     "latency violation: main/bb8 reads r216 at cycle 27 but a write issued at 25 completes at 33");
    ("viterbi", "gdp", "sim.move-latency@3",
     "latency violation: main/bb8 reads r216 at cycle 27 but a write issued at 25 completes at 30");
    ("viterbi", "profile-max", "-",
     "latency violation: main/bb2 reads r215 at cycle 3 but a write issued at 1 completes at 6");
    ("viterbi", "profile-max", "sim.move-latency@*",
     "latency violation: main/bb2 reads r215 at cycle 3 but a write issued at 1 completes at 8");
    ("viterbi", "profile-max", "sim.move-latency@3",
     "latency violation: main/bb2 reads r215 at cycle 3 but a write issued at 1 completes at 6");
    ("viterbi", "naive", "-",
     "latency violation: main/bb8 reads r220 at cycle 20 but a write issued at 19 completes at 24");
    ("viterbi", "naive", "sim.move-latency@*",
     "latency violation: main/bb8 reads r219 at cycle 17 but a write issued at 12 completes at 20");
    ("viterbi", "naive", "sim.move-latency@3",
     "latency violation: main/bb8 reads r220 at cycle 20 but a write issued at 19 completes at 24");
    ("viterbi", "unified", "-",
     "latency violation: main/bb8 reads r224 at cycle 28 but a write issued at 25 completes at 30");
    ("viterbi", "unified", "sim.move-latency@*",
     "latency violation: main/bb8 reads r220 at cycle 17 but a write issued at 12 completes at 19");
    ("viterbi", "unified", "sim.move-latency@3",
     "latency violation: main/bb8 reads r224 at cycle 28 but a write issued at 25 completes at 30");
  ]

let wide_bus =
  lazy
    (Machine_spec.resolve
       {
         (Machine_spec.of_legacy ~clusters:2 ~move_latency:5) with
         Machine_spec.link_bandwidth = 64;
       })

(* The simulator's result on [e]'s clustered program scheduled with
   every transfer free (each routed from its source cluster to itself),
   at the real latencies. *)
let mistimed_result (p : Pipeline.prepared) ctx (e : Pipeline.evaluation) spec
    =
  let module MI = Vliw_sched.Move_insert in
  let machine = ctx.Methods.machine and objects_of = Methods.objects_of ctx in
  let c = e.Pipeline.outcome.Methods.clustered in
  let free = Hashtbl.create 16 in
  Hashtbl.iter
    (fun id (src, _) -> Hashtbl.replace free id (src, src))
    c.MI.move_routes;
  let s =
    MI.schedule ~machine ~objects_of
      { c with MI.move_routes = free; schedule = None }
  in
  let run () =
    match
      Vliw_sched.Vliw_sim.run
        { c with MI.schedule = Some s }
        ~machine ~objects_of ~input:p.Pipeline.bench.Benchsuite.Bench_intf.input
        ()
    with
    | exception Vliw_sched.Vliw_sim.Sim_error m -> m
    | r ->
        let value = function
          | Vliw_interp.Interp.VInt i -> string_of_int i
          | Vliw_interp.Interp.VFloat f -> Printf.sprintf "%h" f
        in
        let outputs =
          String.concat "," (List.map value r.Vliw_sched.Vliw_sim.outputs)
        in
        Printf.sprintf "%d cycles, %d moves, outputs %s"
          r.Vliw_sched.Vliw_sim.cycles r.Vliw_sched.Vliw_sim.dynamic_moves
          (Test_partition.digest16 outputs)
  in
  if spec = "-" then run () else with_injection spec run

(* GDP's rows hold only under the recorded random stream, as in
   [Test_partition.test_pinned_compiles]. *)
let test_pinned_sim_faults () =
  let gdp_counts =
    Test_partition.random_stream () = Test_partition.pinned_random_stream
  in
  (* one context per (machine, benchmark), one evaluation per method *)
  let contexts = Hashtbl.create 8 in
  let evaluation ?machine b m =
    let key = (Option.is_some machine, b) in
    let p, c, evals =
      match Hashtbl.find_opt contexts key with
      | Some pc -> pc
      | None ->
          let p = Pipeline.prepare_default (Benchsuite.Suite.find b) in
          let pc = (p, Pipeline.context ?machine p, Hashtbl.create 4) in
          Hashtbl.replace contexts key pc;
          pc
    in
    match Hashtbl.find_opt evals m with
    | Some e -> (p, c, e)
    | None ->
        let e = Helpers.evaluate c (Result.get_ok (Methods.of_string m)) in
        Hashtbl.replace evals m e;
        (p, c, e)
  in
  let check what pinned result =
    let rows =
      List.filter
        (fun (_, m, _, _) -> gdp_counts || m <> Methods.to_string Methods.Gdp)
        pinned
    in
    let got =
      List.map (fun (b, m, spec, _) -> (b, m, spec, result b m spec)) rows
    in
    let row = Alcotest.(pair (triple string string string) string) in
    let pairs = List.map (fun (b, m, s, r) -> ((b, m, s), r)) in
    Alcotest.(check (list row)) what (pairs rows) (pairs got)
  in
  check "verification result per (benchmark, method, fault)" pinned_sim_faults
    (fun b m spec ->
      let p, c, e = evaluation b m in
      match with_injection spec (fun () -> Pipeline.verify p c e) with
      | Ok () -> "ok"
      | Error msg -> msg);
  check "mistimed simulation per (benchmark, method, fault)" pinned_mistimed_sim
    (fun b m spec ->
      let p, c, e = evaluation ~machine:(Lazy.force wide_bus) b m in
      mistimed_result p c e spec)

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                                *)

let test_robust_identity_without_faults () =
  let p, ctx = prepared_ctx "fir" in
  match robust p ctx Methods.Gdp with
  | Error m -> Alcotest.failf "clean run failed: %s" m
  | Ok r ->
      Alcotest.(check string)
        "no degradation" "gdp"
        (Methods.to_string r.Pipeline.used);
      Alcotest.(check int) "no fallbacks" 0 (List.length r.Pipeline.fallbacks)

let test_robust_degrades_on_infeasible_partition () =
  let p, ctx = prepared_ctx "fir" in
  with_injection "partition.infeasible@1" (fun () ->
      match robust p ctx Methods.Gdp with
      | Error m -> Alcotest.failf "chain exhausted: %s" m
      | Ok r ->
          Alcotest.(check string)
            "degraded to the next method" "profile-max"
            (Methods.to_string r.Pipeline.used);
          (match r.Pipeline.fallbacks with
          | [ fb ] ->
              Alcotest.(check string)
                "gdp is the recorded failure" "gdp" fb.Pipeline.failed_method;
              Alcotest.(check bool)
                "reason names the infeasible constraint" true
                (contains fb.Pipeline.reason "infeasible")
          | fbs ->
              Alcotest.failf "expected exactly one fallback, got %d"
                (List.length fbs));
          let c = Fault.counts () in
          Alcotest.(check int) "injected" 1 c.Fault.injected;
          Alcotest.(check int) "detected" 1 c.Fault.detected;
          Alcotest.(check int) "recovered" 1 c.Fault.recovered)

(* A cluster without a memory unit: GDP and Profile Max home data
   there, and the placement is rejected by name (it once left the list
   scheduler waiting forever for a memory slot); Naive homes nothing
   there, so the chain degrades to it. *)
let nomem_spec =
  {|{"schema":"gdp-machine/1","name":"nomem","topology":"bus",
     "link_latency":5,"link_bandwidth":1,
     "clusters":[{"ints":2,"floats":1,"mems":1,"branches":1},
                 {"ints":2,"floats":1,"mems":0,"branches":1}]}|}

let test_robust_rejects_unit_less_placement () =
  let spec =
    match Result.bind (Minijson.parse nomem_spec) Machine_spec.of_json with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let p = Pipeline.prepare_default (Benchsuite.Suite.find "fir") in
  let settings m = { (Pipeline.Settings.default m) with machine = spec } in
  (match
     Pipeline.run ~prepared:p
       ~mode:(Pipeline.Checked { verify = false })
       (settings Methods.Gdp)
   with
  | Error m ->
      Alcotest.(check bool)
        (Fmt.str "names op, cluster and kind: %s" m)
        true
        (contains m "assignment invariant violated: op "
        && contains m " on cluster 1, which has no memory unit")
  | Ok _ -> Alcotest.fail "Checked accepted a memory op without a memory unit");
  (* Plain mode has no validation: the scheduler refuses the placement *)
  (match Pipeline.run ~prepared:p (settings Methods.Gdp) with
  | exception Invalid_argument m ->
      Alcotest.(check bool)
        (Fmt.str "scheduler names the placement: %s" m)
        true
        (contains m "which has no memory unit")
  | _ -> Alcotest.fail "Plain scheduled a memory op on a cluster without one");
  match
    Pipeline.run ~prepared:p
      ~mode:(Pipeline.Robust { verify = true })
      (settings Methods.Gdp)
  with
  | Ok (Pipeline.Degraded r) ->
      Alcotest.(check string) "degraded to naive" "naive"
        (Methods.to_string r.Pipeline.used);
      Alcotest.(check (list string))
        "gdp and profile-max rejected" [ "gdp"; "profile-max" ]
        (List.map (fun f -> f.Pipeline.failed_method) r.Pipeline.fallbacks)
  | Ok (Pipeline.Evaluated _) -> Alcotest.fail "Robust mode returned Evaluated"
  | Error m -> Alcotest.failf "chain exhausted: %s" m

(** Every documented injection point, when armed on a real benchmark,
    must never be silently accepted: either it finds no opportunity
    (zero injections), or the fault is detected and the chain degrades
    (recovery), or — when armed on *every* opportunity, so even the
    fallback methods run in a corrupted environment — the chain is
    exhausted as a clean [Error] rather than a crash.  A single
    injected fault that is neither detected nor inert (it had enough
    slack to never reach an output) is escalated to [@*], where
    detection becomes mandatory. *)
let test_every_point_detected_or_inert () =
  let p, ctx = prepared_ctx "fir" in
  let run spec =
    with_injection spec (fun () ->
        let r = robust p ctx Methods.Gdp in
        (r, Fault.counts ()))
  in
  List.iter
    (fun (pt : Fault.point) ->
      match run (pt.Fault.name ^ "@1") with
      | Ok r, { Fault.injected = 0; _ } ->
          (* no opportunity on this benchmark: nothing to detect *)
          Alcotest.(check int)
            (pt.Fault.name ^ ": inert run has no fallbacks")
            0
            (List.length r.Pipeline.fallbacks)
      | Ok r, c when c.Fault.detected > 0 ->
          Alcotest.(check bool)
            (pt.Fault.name ^ ": pipeline recovered")
            true
            (c.Fault.recovered > 0 && r.Pipeline.fallbacks <> [])
      | Error _, c ->
          Alcotest.(check bool)
            (pt.Fault.name ^ ": exhausted chain still detected the fault")
            true (c.Fault.detected > 0)
      | Ok _, _ -> (
          (* injected but undetected: the single fault never propagated;
             corrupt every opportunity instead *)
          match run (pt.Fault.name ^ "@*") with
          | Ok r, c ->
              Alcotest.(check bool)
                (pt.Fault.name ^ "@*: detected and recovered")
                true
                (c.Fault.detected > 0 && r.Pipeline.fallbacks <> []);
          | Error _, c ->
              Alcotest.(check bool)
                (pt.Fault.name ^ "@*: exhausted chain still detected")
                true (c.Fault.detected > 0)))
    Fault.points

let test_fallback_chain_order () =
  Alcotest.(check (list string))
    "gdp chain"
    [ "gdp"; "profile-max"; "naive"; "unified" ]
    (List.map Methods.to_string (Methods.fallback_chain Methods.Gdp));
  Alcotest.(check (list string))
    "naive chain" [ "naive"; "unified" ]
    (List.map Methods.to_string (Methods.fallback_chain Methods.Naive));
  Alcotest.(check (list string))
    "unified is terminal" [ "unified" ]
    (List.map Methods.to_string (Methods.fallback_chain Methods.Unified))

(* ------------------------------------------------------------------ *)
(* Crash-safe experiment sweeps                                        *)

let test_experiments_error_row () =
  Gdp_core.Experiments.clear_cache ();
  Fun.protect ~finally:(fun () -> Gdp_core.Experiments.clear_cache ())
  @@ fun () ->
  with_injection "partition.infeasible@*" (fun () ->
      let rows =
        Gdp_core.Experiments.run_all
          ~benches:[ Benchsuite.Suite.find "fir" ]
          ~move_latency:5 ()
      in
      match rows with
      | [ r ] ->
          Alcotest.(check bool)
            "failed benchmark becomes an error row" true
            (r.Gdp_core.Experiments.error <> None);
          Alcotest.(check bool)
            "no cycles recorded" true
            (Gdp_core.Experiments.cycles_opt r "gdp" = None);
          Alcotest.(check string) "right benchmark" "fir"
            r.Gdp_core.Experiments.bench
      | rows -> Alcotest.failf "expected one row, got %d" (List.length rows))

let test_figures_render_gaps () =
  Gdp_core.Experiments.clear_cache ();
  Fun.protect ~finally:(fun () -> Gdp_core.Experiments.clear_cache ())
  @@ fun () ->
  with_injection "partition.infeasible@*" (fun () ->
      let p =
        Gdp_core.Experiments.performance
          ~benches:[ Benchsuite.Suite.find "fir" ]
          ~move_latency:5 ()
      in
      let out =
        Fmt.str "%a" (fun ppf p ->
            Gdp_core.Experiments.render_performance ppf p
              ~figure_name:"figure 7")
          p
      in
      Alcotest.(check bool)
        "failed benchmark renders as an explicit gap" true
        (contains out "n/a"))

(* ------------------------------------------------------------------ *)
(* Cache bounding                                                      *)

let test_clear_caches () =
  let b = Benchsuite.Suite.find "fir" in
  let p1 = Pipeline.prepare_default b in
  let p2 = Pipeline.prepare_default b in
  Alcotest.(check bool) "memoized" true (p1 == p2);
  Pipeline.clear_caches ();
  let p3 = Pipeline.prepare_default b in
  Alcotest.(check bool) "fresh after clear" true (p3 != p1)

(* ------------------------------------------------------------------ *)
(* Differential fuzzing                                                *)

let test_fuzz_smoke () =
  let summary =
    Gdp_fuzz.Fuzz.campaign ~latencies:[ 5 ] ~seed:0 ~count:5 ()
  in
  Alcotest.(check int) "five programs" 5 summary.Gdp_fuzz.Fuzz.programs;
  (match summary.Gdp_fuzz.Fuzz.mismatches with
  | [] -> ()
  | (m, _) :: _ ->
      Alcotest.failf "differential mismatch: %a" Gdp_fuzz.Fuzz.pp_mismatch m)

let test_fuzz_generator_deterministic () =
  Alcotest.(check string)
    "same seed, same program"
    (Gdp_fuzz.Gen_minic.gen_program_with_seed 7)
    (Gdp_fuzz.Gen_minic.gen_program_with_seed 7);
  Alcotest.(check bool)
    "different seeds diverge" true
    (Gdp_fuzz.Gen_minic.gen_program_with_seed 7
    <> Gdp_fuzz.Gen_minic.gen_program_with_seed 8)

let test_shrinker () =
  let keep s = contains s "keep" in
  Alcotest.(check string)
    "greedy line dropping reaches the 1-line core" "keep"
    (Gdp_fuzz.Fuzz.shrink ~budget:100 ~keep "a\nb\nkeep\nc");
  (* a zero budget must return the input unchanged *)
  Alcotest.(check string)
    "no budget, no shrinking" "a\nkeep"
    (Gdp_fuzz.Fuzz.shrink ~budget:0 ~keep "a\nkeep")

let test_crash_corpus_layout () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "gdp-corpus-test"
  in
  let m =
    {
      Gdp_fuzz.Fuzz.seed = 3;
      latency = 5;
      method_name = "gdp";
      reason = "synthetic";
    }
  in
  let paths =
    Gdp_fuzz.Fuzz.save_crash ~dir m ~source:"int x;\nvoid main() {}\n"
      ~shrunk:(Some "void main() {}\n")
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " exists") true (Sys.file_exists p))
    paths;
  Alcotest.(check int) "source, shrunk and report" 3 (List.length paths);
  List.iter Sys.remove paths;
  (try Sys.rmdir dir with Sys_error _ -> ())

let suite =
  [
    Alcotest.test_case "fault: spec parsing" `Quick test_parse_spec;
    Alcotest.test_case "fault: trigger semantics" `Quick
      test_trigger_semantics;
    Alcotest.test_case "fault: deterministic rand" `Quick
      test_rand_deterministic;
    Alcotest.test_case "fault: counters ledger" `Quick test_counts_ledger;
    Alcotest.test_case "verify: clustered interp failure" `Quick
      test_verify_clustered_interp_failure;
    Alcotest.test_case "verify: clustered output mismatch" `Quick
      test_verify_clustered_output_mismatch;
    Alcotest.test_case "verify: sim capacity violation" `Quick
      test_verify_sim_capacity_violation;
    Alcotest.test_case "verify: sim output mismatch" `Quick
      test_verify_sim_output_mismatch;
    Alcotest.test_case "verify: sim latency violation" `Quick
      test_verify_sim_latency_violation;
    Alcotest.test_case "verify: sim fault results pinned" `Quick
      test_pinned_sim_faults;
    Alcotest.test_case "verify: cycle model disagreement" `Quick
      test_verify_cycle_model_disagreement;
    Alcotest.test_case "verify: move model disagreement" `Quick
      test_verify_move_model_disagreement;
    Alcotest.test_case "verify: corrupt assignment rejected" `Quick
      test_verify_corrupt_assignment_detected;
    Alcotest.test_case "robust: identity without faults" `Quick
      test_robust_identity_without_faults;
    Alcotest.test_case "robust: degrades on infeasible partition" `Quick
      test_robust_degrades_on_infeasible_partition;
    Alcotest.test_case "robust: every point detected or inert" `Slow
      test_every_point_detected_or_inert;
    Alcotest.test_case "robust: unit-less placement rejected" `Quick
      test_robust_rejects_unit_less_placement;
    Alcotest.test_case "robust: fallback chain order" `Quick
      test_fallback_chain_order;
    Alcotest.test_case "experiments: error row" `Quick
      test_experiments_error_row;
    Alcotest.test_case "experiments: figures render gaps" `Quick
      test_figures_render_gaps;
    Alcotest.test_case "pipeline: clear_caches" `Quick test_clear_caches;
    Alcotest.test_case "fuzz: differential smoke" `Slow test_fuzz_smoke;
    Alcotest.test_case "fuzz: generator determinism" `Quick
      test_fuzz_generator_deterministic;
    Alcotest.test_case "fuzz: shrinker" `Quick test_shrinker;
    Alcotest.test_case "fuzz: crash corpus layout" `Quick
      test_crash_corpus_layout;
  ]
