(** Scheduling substrate tests: dependence graphs, the cluster-aware list
    scheduler, move insertion, and the cycle-level simulator. *)

open Vliw_ir
module D = Vliw_sched.Deps
module A = Vliw_sched.Assignment
module LS = Vliw_sched.List_sched
module MI = Vliw_sched.Move_insert

let machine = Helpers.machine ()

(** Build a block from op kinds (last one must be a terminator). *)
let block_of kinds =
  let ops = List.mapi (fun i k -> Op.make ~id:i k) kinds in
  match List.rev ops with
  | term :: rev_body ->
      Block.v ~label:"bb0" ~body:(List.rev rev_body) ~term
  | [] -> assert false

let edge_exists deps src dst =
  let found = ref false in
  for k = deps.D.succ_off.(src) to deps.D.succ_off.(src + 1) - 1 do
    if deps.D.succ_node.(k) = dst then found := true
  done;
  !found

let r = Reg.of_int

let test_flow_and_anti_edges () =
  let b =
    block_of
      [
        Op.Ibin (Op.Add, r 0, Op.Imm 1, Op.Imm 2);
        (* 0: def r0 *)
        Op.Ibin (Op.Add, r 1, Op.Reg (r 0), Op.Imm 1);
        (* 1: use r0 *)
        Op.Ibin (Op.Add, r 0, Op.Imm 5, Op.Imm 6);
        (* 2: redef r0 *)
        Op.Ret None;
      ]
  in
  let deps = D.build ~machine b in
  Alcotest.(check bool) "flow 0->1" true (edge_exists deps 0 1);
  Alcotest.(check bool) "anti 1->2" true (edge_exists deps 1 2);
  Alcotest.(check bool) "output 0->2" true (edge_exists deps 0 2);
  Alcotest.(check bool) "all before term" true
    (edge_exists deps 0 3 && edge_exists deps 1 3 && edge_exists deps 2 3)

let test_memory_edges () =
  let b =
    block_of
      [
        Op.Store { src = Op.Imm 1; base = Op.Imm 0x1000; offset = Op.Imm 0 };
        Op.Load { dst = r 0; base = Op.Imm 0x1000; offset = Op.Imm 0 };
        Op.Store { src = Op.Imm 2; base = Op.Imm 0x1000; offset = Op.Imm 8 };
        Op.Ret None;
      ]
  in
  (* without points-to everything aliases *)
  let deps = D.build ~machine b in
  Alcotest.(check bool) "store->load" true (edge_exists deps 0 1);
  Alcotest.(check bool) "load->store (anti)" true (edge_exists deps 1 2);
  Alcotest.(check bool) "store->store" true (edge_exists deps 0 2);
  (* with disjoint objects the edges disappear *)
  let objects_of id =
    if id = 0 then Data.Obj_set.singleton (Data.Global "a")
    else Data.Obj_set.singleton (Data.Global "b")
  in
  let deps = D.build ~objects_of ~machine b in
  Alcotest.(check bool) "disambiguated" false (edge_exists deps 0 1)

let test_out_ordering () =
  let b =
    block_of [ Op.Out (Op.Imm 1); Op.Out (Op.Imm 2); Op.Ret None ]
  in
  let deps = D.build ~machine b in
  Alcotest.(check bool) "out->out" true (edge_exists deps 0 1)

let test_heights_and_asap () =
  let b =
    block_of
      [
        Op.Load { dst = r 0; base = Op.Imm 0x1000; offset = Op.Imm 0 };
        Op.Ibin (Op.Mul, r 1, Op.Reg (r 0), Op.Imm 3);
        Op.Ibin (Op.Add, r 2, Op.Reg (r 1), Op.Imm 1);
        Op.Ret None;
      ]
  in
  let deps = D.build ~machine b in
  (* load(2) -> mul(3) -> add(1): heights give 2+3+1 = 6 *)
  Alcotest.(check int) "critical path" 6 (D.critical_path deps);
  let asap, alap = D.asap_alap deps in
  let asap i = asap.(i) and alap i = alap.(i) in
  Alcotest.(check int) "asap load" 0 (asap 0);
  Alcotest.(check int) "asap mul" 2 (asap 1);
  Alcotest.(check int) "asap add" 5 (asap 2);
  (* everything on the chain has zero slack *)
  Alcotest.(check int) "alap load" 0 (alap 0);
  Alcotest.(check int) "alap mul" 2 (alap 1)

(* ------------------------------------------------------------------ *)
(* List scheduler                                                      *)

let all_on cluster block =
  let a = A.create ~num_clusters:2 in
  List.iter (fun op -> A.set_cluster a ~op_id:(Op.id op) cluster) (Block.ops block);
  a

let test_scheduler_resources () =
  (* 4 independent loads on one cluster with 1 memory unit: they must
     issue in 4 distinct cycles *)
  let b =
    block_of
      [
        Op.Load { dst = r 0; base = Op.Imm 0x1000; offset = Op.Imm 0 };
        Op.Load { dst = r 1; base = Op.Imm 0x1000; offset = Op.Imm 8 };
        Op.Load { dst = r 2; base = Op.Imm 0x1000; offset = Op.Imm 16 };
        Op.Load { dst = r 3; base = Op.Imm 0x1000; offset = Op.Imm 24 };
        Op.Ret None;
      ]
  in
  let assign = all_on 0 b in
  let s =
    LS.schedule_block ~machine ~assign ~move_routes:(Hashtbl.create 0) b
  in
  let load_cycles =
    Array.to_list (LS.entries s)
    |> List.filter_map (fun (e : LS.entry) ->
           if Op.is_load e.LS.op then Some e.LS.cycle else None)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "distinct cycles" 4 (List.length load_cycles);
  Alcotest.(check bool) "length >= 4" true (LS.length s >= 4)

let test_scheduler_uses_both_clusters () =
  (* the same 4 loads split across clusters halve the span *)
  let b =
    block_of
      [
        Op.Load { dst = r 0; base = Op.Imm 0x1000; offset = Op.Imm 0 };
        Op.Load { dst = r 1; base = Op.Imm 0x1000; offset = Op.Imm 8 };
        Op.Load { dst = r 2; base = Op.Imm 0x1000; offset = Op.Imm 16 };
        Op.Load { dst = r 3; base = Op.Imm 0x1000; offset = Op.Imm 24 };
        Op.Ret None;
      ]
  in
  let assign = A.create ~num_clusters:2 in
  List.iteri
    (fun i op -> A.set_cluster assign ~op_id:(Op.id op) (i mod 2))
    (Block.body b);
  A.set_cluster assign ~op_id:(Op.id (Block.term b)) 0;
  let split =
    LS.schedule_block ~machine ~assign ~move_routes:(Hashtbl.create 0) b
  in
  let serial =
    LS.schedule_block ~machine ~assign:(all_on 0 b)
      ~move_routes:(Hashtbl.create 0) b
  in
  Alcotest.(check bool) "split is faster" true
    (LS.length split < LS.length serial)

let test_scheduler_latency_respected () =
  let b =
    block_of
      [
        Op.Fbin (Op.Fdiv, r 0, Op.Fimm 1., Op.Fimm 3.);
        Op.Fbin (Op.Fadd, r 1, Op.Reg (r 0), Op.Fimm 1.);
        Op.Out (Op.Reg (r 1));
        Op.Ret None;
      ]
  in
  let s =
    LS.schedule_block ~machine ~assign:(all_on 0 b)
      ~move_routes:(Hashtbl.create 0) b
  in
  let cycle_of i =
    let found = ref (-1) in
    Array.iter
      (fun (e : LS.entry) -> if Op.id e.LS.op = i then found := e.LS.cycle)
      (LS.entries s);
    !found
  in
  let l = Vliw_machine.itanium_latencies in
  Alcotest.(check bool) "fadd waits for fdiv" true
    (cycle_of 1 >= cycle_of 0 + l.Vliw_machine.float_div)

let test_bus_bandwidth () =
  (* two parallel moves on a 1-move/cycle bus issue in different cycles *)
  let b =
    block_of
      [
        Op.Ibin (Op.Add, r 0, Op.Imm 1, Op.Imm 2);
        Op.Ibin (Op.Add, r 1, Op.Imm 3, Op.Imm 4);
        Op.Move { dst = r 2; src = r 0 };
        Op.Move { dst = r 3; src = r 1 };
        Op.Ret None;
      ]
  in
  let assign = A.create ~num_clusters:2 in
  List.iter (fun op -> A.set_cluster assign ~op_id:(Op.id op) 0) (Block.ops b);
  A.set_cluster assign ~op_id:2 1;
  A.set_cluster assign ~op_id:3 1;
  let move_routes = Hashtbl.create 4 in
  Hashtbl.replace move_routes 2 (0, 1);
  Hashtbl.replace move_routes 3 (0, 1);
  let s = LS.schedule_block ~machine ~assign ~move_routes b in
  let moves =
    Array.to_list (LS.entries s)
    |> List.filter_map (fun (e : LS.entry) ->
           if Op.is_move e.LS.op then Some e.LS.cycle else None)
  in
  Alcotest.(check int) "two moves" 2 (List.length moves);
  Alcotest.(check bool) "different cycles" true
    (List.length (List.sort_uniq compare moves) = 2)

let test_lower_bound_holds_on_benchmarks () =
  List.iter
    (fun name ->
      let b = Benchsuite.Suite.find name in
      let p = Gdp_core.Pipeline.prepare b in
      let ctx = Gdp_core.Pipeline.context ~machine p in
      let o = Partition.Methods.run Partition.Methods.Gdp ctx in
      let c = o.Partition.Methods.clustered in
      let objects_of = Partition.Methods.objects_of ctx in
      let schedule = MI.schedule ~machine ~objects_of c in
      List.iter
        (fun f ->
          let fs = Vliw_sched.Schedule.find_func schedule (Func.name f) in
          Array.iteri
            (fun i s ->
              let blk = Vliw_analysis.Cfg.block fs.Vliw_sched.Schedule.cfg i in
              let lb =
                LS.lower_bound ~machine ~assign:c.MI.cassign
                  ~move_routes:c.MI.move_routes ~objects_of
                  ~live_out:
                    (Vliw_analysis.Liveness.live_out
                       fs.Vliw_sched.Schedule.liveness i)
                  blk
              in
              if LS.length s < lb then
                Alcotest.failf "%s/%s: schedule %d below lower bound %d" name
                  (Label.to_string (Block.label blk))
                  (LS.length s) lb)
            fs.Vliw_sched.Schedule.blocks)
        (Prog.funcs c.MI.cprog))
    [ "rawcaudio"; "fir"; "mpeg2dec" ]

(* ------------------------------------------------------------------ *)
(* One schedule per compile                                            *)

let blocks_scheduled f =
  let r, snap = Telemetry.capture f in
  ( r,
    Option.value ~default:0
      (Telemetry.Snapshot.find_counter snap "sched.blocks_scheduled") )

let num_blocks (c : MI.clustered) =
  List.fold_left
    (fun n f -> n + List.length (Func.blocks f))
    0 (Prog.funcs c.MI.cprog)

(* A verified compile schedules each block of the clustered program
   once: the cycle model builds the schedule and the simulator executes
   it, whether [Pipeline.run] or the caller sequences the two.  A
   simulation on another machine value schedules afresh. *)
let test_one_schedule_per_compile () =
  let module P = Gdp_core.Pipeline in
  let p = P.prepare (Benchsuite.Suite.find "fir") in
  let ctx = P.context ~machine p in
  (match
     blocks_scheduled (fun () ->
         P.run ~prepared:p ~ctx ~mode:(P.Checked { verify = true })
           (P.Settings.default Partition.Methods.Gdp))
   with
  | Ok (P.Evaluated e), n ->
      Alcotest.(check int)
        "Pipeline.run" (num_blocks e.P.outcome.Partition.Methods.clustered) n
  | _ -> Alcotest.fail "the verified compile failed");
  let c =
    (Partition.Methods.run Partition.Methods.Gdp ctx)
      .Partition.Methods.clustered
  in
  let objects_of = Partition.Methods.objects_of ctx in
  let input = p.P.bench.Benchsuite.Bench_intf.input in
  let (report, sim), n =
    blocks_scheduled (fun () ->
        let report =
          Vliw_sched.Perf.evaluate ~machine c
            ~profile:ctx.Partition.Methods.profile ~objects_of ()
        in
        (report, Vliw_sched.Vliw_sim.run c ~machine ~objects_of ~input ()))
  in
  Alcotest.(check int) "Perf.evaluate, then Vliw_sim.run" (num_blocks c) n;
  Alcotest.(check int)
    "simulated cycles" report.Vliw_sched.Perf.total_cycles
    sim.Vliw_sched.Vliw_sim.cycles;
  let sim', n =
    blocks_scheduled (fun () ->
        Vliw_sched.Vliw_sim.run c ~machine:(Helpers.machine ()) ~objects_of
          ~input ())
  in
  Alcotest.(check int) "another machine value" (num_blocks c) n;
  Alcotest.(check int)
    "same cycles on an equal machine" sim.Vliw_sched.Vliw_sim.cycles
    sim'.Vliw_sched.Vliw_sim.cycles

(* ------------------------------------------------------------------ *)
(* Move insertion + simulation on random programs                      *)

let prop_random_homes_preserve_semantics =
  Helpers.qcheck ~count:40
    "random object homes: clustered program preserves semantics and the \
     simulator agrees with the static model"
    (fun seed ->
      let src = Gen_minic.gen_program_with_seed seed in
      let prog = Minic.compile src in
      let input = Gen_minic.input in
      let reference = Vliw_interp.Interp.run prog ~input in
      let ctx =
        Partition.Methods.make_context ~machine ~prog
          ~profile:reference.Vliw_interp.Interp.profile ()
      in
      (* derive homes from the seed *)
      let st = Random.State.make [| seed * 7 + 1 |] in
      let homes =
        List.concat_map
          (fun (g : Partition.Merge.group) ->
            let c = Random.State.int st 2 in
            List.map (fun o -> (o, c)) g.Partition.Merge.objects)
          (Partition.Merge.data_groups ctx.Partition.Methods.merge)
      in
      let o =
        Partition.Methods.clustered_with_homes ctx ~method_name:"random"
          ~rhop_runs:1 homes
      in
      let report = Partition.Methods.evaluate ctx o in
      let re =
        Vliw_interp.Interp.run o.Partition.Methods.clustered.MI.cprog ~input
      in
      let sim =
        Vliw_sched.Vliw_sim.run o.Partition.Methods.clustered ~machine
          ~objects_of:(Partition.Methods.objects_of ctx) ~input ()
      in
      Helpers.equal_outputs re.Vliw_interp.Interp.outputs
        reference.Vliw_interp.Interp.outputs
      && Helpers.equal_outputs sim.Vliw_sched.Vliw_sim.outputs
           reference.Vliw_interp.Interp.outputs
      && sim.Vliw_sched.Vliw_sim.cycles
         = report.Vliw_sched.Perf.total_cycles
      && sim.Vliw_sched.Vliw_sim.dynamic_moves
         = report.Vliw_sched.Perf.dynamic_moves)
    Gen_minic.arbitrary_program

let test_occupancy () =
  let b =
    block_of
      [
        Op.Load { dst = r 0; base = Op.Imm 0x1000; offset = Op.Imm 0 };
        Op.Ibin (Op.Add, r 1, Op.Reg (r 0), Op.Imm 1);
        Op.Ret None;
      ]
  in
  let s =
    LS.schedule_block ~machine ~assign:(all_on 0 b)
      ~move_routes:(Hashtbl.create 0) b
  in
  let occ = Vliw_sched.Occupancy.of_schedule ~machine s in
  Alcotest.(check int) "one load issued" 1
    occ.Vliw_sched.Occupancy.fu_issues.(0).(Vliw_machine.fu_kind_index
                                              Vliw_machine.FU_memory);
  Alcotest.(check int) "nothing on cluster 1" 0
    (Array.fold_left ( + ) 0 occ.Vliw_sched.Occupancy.fu_issues.(1));
  let shares = Vliw_sched.Occupancy.cluster_shares occ in
  Alcotest.(check bool) "cluster 0 does all the work" true
    (shares.(0) = 1.0 && shares.(1) = 0.0);
  (* weighted accumulation doubles the counts *)
  let acc = Vliw_sched.Occupancy.accumulate occ ~weight:2 None in
  Alcotest.(check int) "weighted issues" 2
    acc.Vliw_sched.Occupancy.fu_issues.(0).(Vliw_machine.fu_kind_index
                                              Vliw_machine.FU_memory)

let test_move_insert_rejects_moves () =
  let b =
    block_of [ Op.Move { dst = r 1; src = r 0 }; Op.Ret None ]
  in
  let f = Func.v ~name:"main" ~params:[] ~blocks:[ b ] ~reg_count:2 in
  let prog = Prog.v ~globals:[] ~funcs:[ f ] ~op_count:2 in
  let assign = A.create ~num_clusters:2 in
  Prog.iter_ops (fun op -> A.set_cluster assign ~op_id:(Op.id op) 0) prog;
  Alcotest.check_raises "already has moves"
    (Invalid_argument "Move_insert.apply: program already contains moves")
    (fun () -> ignore (MI.apply prog assign))

let test_assignment_invariants () =
  let assign = A.create ~num_clusters:2 in
  Alcotest.check_raises "cluster out of range"
    (Invalid_argument "Assignment.set_cluster: cluster out of range")
    (fun () -> A.set_cluster assign ~op_id:0 5)

(* ------------------------------------------------------------------ *)
(* Exactness against the reference graph builder and scheduler        *)

let blocks prog = List.concat_map Func.blocks (Prog.funcs prog)

(* Where [Deps.build] and [Ref_sched.build_deps] disagree on a block:
   the edge set with each pair's latency and flow flag (both CSR
   directions), the flow-edge order, the heights, and the successor
   rows' shape (ascending, ending in the terminator). *)
let deps_mismatch ?objects_of ?latency_of ~machine b =
  let d = D.build ?objects_of ?latency_of ~machine b in
  let r = Ref_sched.build_deps ?objects_of ?latency_of ~machine b in
  let n = D.num_ops d in
  let is_flow = Hashtbl.create 16 in
  List.iter
    (fun (d, u, _) -> Hashtbl.replace is_flow (d, u) ())
    r.Ref_sched.flow;
  let want =
    List.sort compare
      (List.concat
         (List.mapi
            (fun i ps ->
              List.map (fun (p, l) -> (p, i, l, Hashtbl.mem is_flow (p, i))) ps)
            (Array.to_list r.Ref_sched.preds)))
  in
  let csr off node lat flow ~dir =
    List.sort compare
      (List.concat
         (List.init n (fun i ->
              List.init
                (off.(i + 1) - off.(i))
                (fun k ->
                  let j = off.(i) + k in
                  if dir then (node.(j), i, lat.(j), flow.(j))
                  else (i, node.(j), lat.(j), flow.(j))))))
  in
  let preds =
    csr d.D.pred_off d.D.pred_node d.D.pred_lat d.D.pred_flow ~dir:true
  in
  let succs =
    csr d.D.succ_off d.D.succ_node d.D.succ_lat d.D.succ_flow ~dir:false
  in
  let flow_order = List.map (fun (d, u, _) -> (d, u)) r.Ref_sched.flow in
  let flow_got =
    Array.to_list
      (Array.mapi (fun k def -> (def, d.D.flow_use.(k))) d.D.flow_def)
  in
  let rows_ok =
    List.for_all
      (fun i ->
        let lo = d.D.succ_off.(i) and hi = d.D.succ_off.(i + 1) in
        (i = n - 1 || (hi > lo && d.D.succ_node.(hi - 1) = n - 1))
        && List.for_all
             (fun k -> d.D.succ_node.(k) < d.D.succ_node.(k + 1))
             (List.init (max 0 (hi - lo - 1)) (fun k -> lo + k)))
      (List.init n Fun.id)
  in
  let label = Label.to_string (Block.label b) in
  if preds <> want then Some (label ^ ": predecessor edges differ")
  else if succs <> want then Some (label ^ ": successor edges differ")
  else if flow_got <> flow_order then Some (label ^ ": flow-edge order differs")
  else if D.heights d <> Ref_sched.heights r then
    Some (label ^ ": heights differ")
  else if not rows_ok then Some (label ^ ": successor rows out of order")
  else None

(* A points-to oracle that draws each memory op's objects from three
   globals, the empty set (aliases everything) included. *)
let random_objects seed id =
  let h = Hashtbl.hash (seed, id) in
  List.fold_left
    (fun acc (bit, name) ->
      if h land bit <> 0 then Data.Obj_set.add (Data.Global name) acc else acc)
    Data.Obj_set.empty
    [ (1, "a"); (2, "b"); (4, "c") ]

let prop_deps_match_reference =
  Helpers.qcheck ~count:40 "deps: graph equals the reference on random blocks"
    (fun seed ->
      let prog =
        Helpers.compile ~unroll:true (Gen_minic.gen_program_with_seed seed)
      in
      let pt = Vliw_analysis.Points_to.compute prog in
      List.iter
        (fun objects_of ->
          List.iter
            (fun b ->
              match deps_mismatch ?objects_of ~machine b with
              | None -> ()
              | Some msg -> QCheck.Test.fail_report msg)
            (blocks prog))
        [
          None;
          Some (Vliw_analysis.Points_to.objects_of pt);
          Some (random_objects seed);
        ];
      true)
    Gen_minic.arbitrary_program

let test_deps_match_reference_suite () =
  List.iter
    (fun (bench : Benchsuite.Bench_intf.t) ->
      let p = Gdp_core.Pipeline.prepare_default bench in
      let prog = p.Gdp_core.Pipeline.prog in
      let objects_of =
        Vliw_analysis.Points_to.(objects_of (compute prog))
      in
      List.iter
        (fun b ->
          match deps_mismatch ~objects_of ~machine b with
          | None -> ()
          | Some msg -> Alcotest.failf "%s: %s" bench.name msg)
        (blocks prog))
    Benchsuite.Suite.all

(* A random placement of [b] on [machine]: a cluster per op, and about
   one op in five (never the terminator) made a routed move between
   two distinct clusters. *)
let random_placement st machine b =
  let k = Vliw_machine.num_clusters machine in
  let assign = A.create ~num_clusters:k in
  let move_routes = Hashtbl.create 8 in
  let ops = Block.ops b in
  let last = List.length ops - 1 in
  List.iteri
    (fun i op ->
      let c = Random.State.int st k in
      A.set_cluster assign ~op_id:(Op.id op) c;
      if k > 1 && i < last && Random.State.int st 5 = 0 then
        Hashtbl.replace move_routes (Op.id op)
          (c, (c + 1 + Random.State.int st (k - 1)) mod k))
    ops;
  (assign, move_routes)

let prop_schedule_matches_reference =
  Helpers.qcheck ~count:40
    "list_sched: schedule equals the reference on random blocks, placements \
     and machines"
    (fun seed ->
      let st = Random.State.make [| (seed * 13) + 5 |] in
      let machine = Machine_spec.resolve (Helpers.gen_spec st) in
      let prog =
        Helpers.compile ~unroll:true (Gen_minic.gen_program_with_seed seed)
      in
      List.iter
        (fun b ->
          let assign, move_routes = random_placement st machine b in
          let live_out =
            List.fold_left
              (fun acc op ->
                if Op.id op mod 2 = 0 then
                  List.fold_left (Fun.flip Reg.Set.add) acc (Op.defs op)
                else acc)
              Reg.Set.empty (Block.ops b)
          in
          let objects_of = random_objects seed in
          let s =
            LS.schedule_block ~machine ~assign ~move_routes ~objects_of
              ~live_out b
          in
          let got =
            ( Array.to_list
                (Array.map
                   (fun (e : LS.entry) ->
                     ( Op.id e.LS.op,
                       e.LS.cycle,
                       e.LS.cluster,
                       e.LS.ready,
                       e.LS.lat,
                       e.LS.hops ))
                   (LS.entries s)),
              LS.length s )
          in
          let want =
            Ref_sched.schedule_block ~machine ~assign ~move_routes ~objects_of
              ~live_out b
          in
          if got <> want then
            QCheck.Test.fail_reportf "%s on %s: schedules differ"
              (Label.to_string (Block.label b))
              machine.Vliw_machine.name)
        (blocks prog);
      true)
    Gen_minic.arbitrary_program

let suite =
  [
    Alcotest.test_case "flow/anti/output edges" `Quick test_flow_and_anti_edges;
    Alcotest.test_case "memory edges and disambiguation" `Quick
      test_memory_edges;
    Alcotest.test_case "output ordering" `Quick test_out_ordering;
    Alcotest.test_case "heights and asap/alap" `Quick test_heights_and_asap;
    prop_deps_match_reference;
    Alcotest.test_case "deps: graph equals the reference on every suite block"
      `Quick test_deps_match_reference_suite;
    prop_schedule_matches_reference;
    Alcotest.test_case "scheduler respects fu counts" `Quick
      test_scheduler_resources;
    Alcotest.test_case "scheduler exploits both clusters" `Quick
      test_scheduler_uses_both_clusters;
    Alcotest.test_case "scheduler respects latency" `Quick
      test_scheduler_latency_respected;
    Alcotest.test_case "bus bandwidth" `Quick test_bus_bandwidth;
    Alcotest.test_case "lower bounds on benchmarks" `Slow
      test_lower_bound_holds_on_benchmarks;
    Alcotest.test_case "one schedule per compile" `Quick
      test_one_schedule_per_compile;
    prop_random_homes_preserve_semantics;
    Alcotest.test_case "occupancy statistics" `Quick test_occupancy;
    Alcotest.test_case "move insert rejects moves" `Quick
      test_move_insert_rejects_moves;
    Alcotest.test_case "assignment invariants" `Quick test_assignment_invariants;
  ]
