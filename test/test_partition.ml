(** Partitioning tests: access-pattern merging, the RHOP estimator and
    partitioner invariants, GDP object partitioning, the baselines. *)

open Vliw_ir
module M = Partition.Merge
module Methods = Partition.Methods

let machine = Helpers.machine ()

let context_of src ~input =
  let prog = Minic.compile ~unroll:false src in
  let reference = Vliw_interp.Interp.run prog ~input in
  Methods.make_context ~machine ~prog
    ~profile:reference.Vliw_interp.Interp.profile ()

(* ------------------------------------------------------------------ *)
(* Access-pattern merging (Section 3.3.1)                              *)

let ambiguous_src =
  {|
int value1;
int value2[4];
void main() {
  int *foo = &value1;
  if (in(0) > 0) {
    int *x = malloc(4);
    x[0] = 7;
    foo = x;
  }
  out(foo[0]);
  out(value2[1]);
}
|}

let test_merge_ambiguous_objects () =
  (* the paper's Figure 4: a load that may access either the global or
     the heap object forces them into one group *)
  let ctx = context_of ambiguous_src ~input:[| 1 |] in
  let merge = ctx.Methods.merge in
  let g1 = M.group_of_obj merge (Data.Global "value1") in
  let gh = M.group_of_obj merge (Data.Heap 0) in
  let g2 = M.group_of_obj merge (Data.Global "value2") in
  Alcotest.(check bool) "value1 grouped with heap" true (g1 = gh && g1 <> None);
  Alcotest.(check bool) "value2 separate" true (g2 <> g1)

let test_merge_shared_ops () =
  (* two loads of the same object end up in the same group *)
  let src =
    {|
int a[4] = {1, 2, 3, 4};
void main() { out(a[0] + a[3]); }
|}
  in
  let ctx = context_of src ~input:[||] in
  let merge = ctx.Methods.merge in
  match M.group_of_obj merge (Data.Global "a") with
  | None -> Alcotest.fail "a has no group"
  | Some g ->
      Alcotest.(check int) "two member ops" 2
        (List.length (M.group merge g).M.mem_ops)

let test_merge_group_sizes () =
  let ctx = context_of ambiguous_src ~input:[| 1 |] in
  let merge = ctx.Methods.merge in
  let total =
    Array.fold_left (fun acc g -> acc + g.M.bytes) 0 merge.M.groups
  in
  Alcotest.(check int) "all bytes accounted"
    (Data.total_bytes ctx.Methods.objtab) total

let test_merge_partition_property () =
  (* groups partition the object set: every object in exactly one group *)
  let ctx = context_of ambiguous_src ~input:[| 1 |] in
  let merge = ctx.Methods.merge in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun g ->
      List.iter
        (fun o ->
          if Hashtbl.mem seen o then Alcotest.fail "object in two groups";
          Hashtbl.replace seen o ())
        g.M.objects)
    merge.M.groups;
  Alcotest.(check int) "all objects covered"
    (Data.table_length ctx.Methods.objtab)
    (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* RHOP invariants                                                     *)

let check_inv1 prog assign =
  (* raises when a register web spans clusters *)
  List.iter
    (fun f -> ignore (Vliw_sched.Assignment.reg_homes assign f))
    (Prog.funcs prog)

let test_rhop_unified_invariants () =
  let b = Benchsuite.Suite.find "rawdaudio" in
  let p = Gdp_core.Pipeline.prepare b in
  let ctx = Gdp_core.Pipeline.context ~machine p in
  let assign =
    Vliw_sched.Assignment.create
      ~num_clusters:(Vliw_machine.num_clusters machine)
  in
  Partition.Rhop.partition ~machine
    ~objects_of:(Methods.objects_of ctx)
    ~lock_of:(fun _ -> None)
    ctx.Methods.prog assign;
  (* every op assigned *)
  Prog.iter_ops
    (fun op ->
      match
        Vliw_sched.Assignment.cluster_of_opt assign ~op_id:(Op.id op)
      with
      | Some c -> Alcotest.(check bool) "in range" true (c = 0 || c = 1)
      | None -> Alcotest.failf "op %d unassigned" (Op.id op))
    ctx.Methods.prog;
  check_inv1 ctx.Methods.prog assign

let test_rhop_respects_locks () =
  let b = Benchsuite.Suite.find "rawdaudio" in
  let p = Gdp_core.Pipeline.prepare b in
  let ctx = Gdp_core.Pipeline.context ~machine p in
  (* lock every group to cluster 1 *)
  let homes =
    List.concat_map
      (fun (g : M.group) -> List.map (fun o -> (o, 1)) g.M.objects)
      (M.data_groups ctx.Methods.merge)
  in
  let o = Methods.clustered_with_homes ctx ~method_name:"t" ~rhop_runs:1 homes in
  let assign = o.Methods.clustered.Vliw_sched.Move_insert.cassign in
  Prog.iter_ops
    (fun op ->
      if Op.is_mem op then
        Alcotest.(check int) "memory op on locked cluster" 1
          (Vliw_sched.Assignment.cluster_of assign ~op_id:(Op.id op)))
    ctx.Methods.prog;
  (* the assignment validates against the homes *)
  Vliw_sched.Assignment.validate assign o.Methods.clustered.Vliw_sched.Move_insert.cprog
    ~objects_of:(Methods.objects_of ctx)

let test_est_prefers_colocation () =
  (* cutting the only flow edge must not look free *)
  let r = Reg.of_int in
  let ops =
    [
      Op.make ~id:0 (Op.Ibin (Op.Add, r 0, Op.Imm 1, Op.Imm 2));
      Op.make ~id:1 (Op.Ibin (Op.Add, r 1, Op.Reg (r 0), Op.Imm 1));
    ]
  in
  let block =
    Block.v ~label:"bb0" ~body:ops ~term:(Op.make ~id:2 (Op.Ret None))
  in
  let deps = Vliw_sched.Deps.build ~machine block in
  let est =
    Partition.Est.make ~machine ~deps ~pins:[] ~couplings:[]
      ~live_out:Reg.Set.empty ~xmove_weight:5
  in
  let together = Partition.Est.cost est [| 0; 0; 0 |] in
  let apart = Partition.Est.cost est [| 0; 1; 0 |] in
  Alcotest.(check bool) "colocated cheaper" true (together < apart)

(* The incremental estimate of [block] on [machine] after each of
   [moves] random moves, against [Est.cost] of the same assignment.
   Pins, couplings, live-outs and the start assignment are drawn from
   [st] too.  A move is a single op, a random subset of ops sent to
   one cluster, or the previous move's ops sent back where they were.
   Returns the first disagreement. *)
let incremental_mismatch ~machine st ~moves block =
  let module Est = Partition.Est in
  let deps = Vliw_sched.Deps.build ~machine block in
  let n = Vliw_sched.Deps.num_ops deps in
  let k = Vliw_machine.num_clusters machine in
  let ops = List.init n Fun.id in
  let pick () = Random.State.int st k in
  let live_out =
    List.fold_left
      (fun acc i ->
        List.fold_left
          (fun acc r -> if Random.State.bool st then Reg.Set.add r acc else acc)
          acc
          (Op.defs (Vliw_sched.Deps.op deps i)))
      Reg.Set.empty ops
  in
  let pins =
    List.filter_map
      (fun i -> if Random.State.int st 4 = 0 then Some (i, pick ()) else None)
      ops
  in
  let couplings =
    List.init (Random.State.int st 6) (fun _ ->
        (Random.State.int st n, Random.State.int st n))
    |> List.filter (fun (u, d) -> u < d)
  in
  let est =
    Est.make ~machine ~deps ~pins ~couplings ~live_out
      ~xmove_weight:(1 + Random.State.int st 5)
  in
  let cluster = Array.init n (fun _ -> pick ()) in
  Est.load est cluster;
  let check step =
    let inc = Est.current est and full = Est.cost est cluster in
    if inc = full then None
    else
      Some
        (Printf.sprintf "%s, block %s (%d ops), move %d: incremental %d, full %d"
           machine.Vliw_machine.name
           (Label.to_string (Block.label block))
           n step inc full)
  in
  let rec go step last =
    if step > moves then None
    else
      let batch =
        match Random.State.int st 3 with
        | 0 -> [ (Random.State.int st n, pick ()) ]
        | 1 ->
            let c = pick () in
            List.filter_map
              (fun i -> if Random.State.int st 3 = 0 then Some (i, c) else None)
              ops
        | _ -> last
      in
      let undo = List.map (fun (i, _) -> (i, cluster.(i))) batch in
      List.iter (fun (i, c) -> Est.move est i c) batch;
      match check step with None -> go (step + 1) undo | mismatch -> mismatch
  in
  match check 0 with None -> go 1 [] | mismatch -> mismatch

let blocks prog = List.concat_map Func.blocks (Prog.funcs prog)

let prop_est_incremental =
  Helpers.qcheck ~count:30
    "est: incremental cost equals Est.cost on random blocks and machines"
    (fun seed ->
      let st = Random.State.make [| (seed * 7) + 3 |] in
      let machine = Machine_spec.resolve (Helpers.gen_spec st) in
      let prog =
        Helpers.compile ~unroll:true (Gen_minic.gen_program_with_seed seed)
      in
      List.iter
        (fun b ->
          match incremental_mismatch ~machine st ~moves:50 b with
          | None -> ()
          | Some msg -> QCheck.Test.fail_report msg)
        (blocks prog);
      true)
    Gen_minic.arbitrary_program

let test_est_incremental_suite () =
  List.iter
    (fun machine ->
      let st = Random.State.make [| 17 |] in
      List.iter
        (fun (b : Benchsuite.Bench_intf.t) ->
          let p = Gdp_core.Pipeline.prepare_default b in
          List.iter
            (fun block ->
              match incremental_mismatch ~machine st ~moves:200 block with
              | None -> ()
              | Some msg -> Alcotest.failf "%s: %s" b.name msg)
            (blocks p.Gdp_core.Pipeline.prog))
        Benchsuite.Suite.all)
    [ Helpers.preset_machine "paper"; Helpers.preset_machine "mesh16" ]

(* RHOP's estimator work per candidate stays local: a full estimate
   recomputes every level of the block, hundreds on mpeg2dec's large
   blocks, the incremental one only those downstream of the group. *)
let test_rhop_relevels_local () =
  let machine = Helpers.preset_machine "mesh16" in
  let p =
    Gdp_core.Pipeline.prepare_default (Benchsuite.Suite.find "mpeg2dec")
  in
  let ctx = Gdp_core.Pipeline.context ~machine p in
  let (_ : Methods.outcome), snap =
    Telemetry.capture (fun () -> Methods.run Methods.Gdp ctx)
  in
  let count name =
    Option.value ~default:0 (Telemetry.Snapshot.find_counter snap name)
  in
  let candidates = count "rhop.candidates" and relevels = count "rhop.relevels" in
  Alcotest.(check bool) "candidates priced" true (candidates > 0);
  if relevels >= 20 * candidates then
    Alcotest.failf "%d relevels for %d candidates" relevels candidates

(* ------------------------------------------------------------------ *)
(* GDP object partitioning                                             *)

let test_gdp_balances_data () =
  let b = Benchsuite.Suite.find "rawcaudio" in
  let p = Gdp_core.Pipeline.prepare b in
  let ctx = Gdp_core.Pipeline.context ~machine p in
  let r =
    Partition.Gdp.partition_objects ~machine ~prog:ctx.Methods.prog
      ~merge:ctx.Methods.merge ~dfg:ctx.Methods.dfg ~profile:ctx.Methods.profile ()
  in
  let bytes = Array.make 2 0 in
  List.iter
    (fun (o, c) ->
      bytes.(c) <- bytes.(c) + Data.size_of_obj ctx.Methods.objtab o)
    r.Partition.Gdp.obj_home;
  let total = bytes.(0) + bytes.(1) in
  let bigger = max bytes.(0) bytes.(1) in
  (* within the configured tolerance (25%) plus integer slop *)
  Alcotest.(check bool) "balanced" true
    (float bigger <= (1.30 /. 2.) *. float total);
  (* every object got a home *)
  Alcotest.(check int) "all objects"
    (Data.table_length ctx.Methods.objtab)
    (List.length r.Partition.Gdp.obj_home)

let test_gdp_groups_stay_together () =
  let ctx = context_of ambiguous_src ~input:[| 1 |] in
  let r =
    Partition.Gdp.partition_objects ~machine ~prog:ctx.Methods.prog
      ~merge:ctx.Methods.merge ~dfg:ctx.Methods.dfg ~profile:ctx.Methods.profile ()
  in
  let home o = List.assoc o r.Partition.Gdp.obj_home in
  Alcotest.(check int) "merged objects share a home"
    (home (Data.Global "value1"))
    (home (Data.Heap 0))

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)

let test_profile_max_balance_cap () =
  let b = Benchsuite.Suite.find "rawdaudio" in
  let p = Gdp_core.Pipeline.prepare b in
  let ctx = Gdp_core.Pipeline.context ~machine p in
  let o = Methods.run Methods.Profile_max ctx in
  let bytes = Array.make 2 0 in
  List.iter
    (fun (obj, c) ->
      bytes.(c) <- bytes.(c) + Data.size_of_obj ctx.Methods.objtab obj)
    o.Methods.obj_home;
  let total = bytes.(0) + bytes.(1) in
  Alcotest.(check bool) "capacity respected" true
    (float (max bytes.(0) bytes.(1)) <= (1.25 /. 2.) *. float total +. 8200.)

let test_naive_max_frequency () =
  (* naive puts each group exactly where it is accessed most *)
  let b = Benchsuite.Suite.find "fir" in
  let p = Gdp_core.Pipeline.prepare b in
  let ctx = Gdp_core.Pipeline.context ~machine p in
  let assign =
    Vliw_sched.Assignment.create
      ~num_clusters:(Vliw_machine.num_clusters machine)
  in
  Partition.Rhop.partition ~machine
    ~objects_of:(Methods.objects_of ctx)
    ~lock_of:(fun _ -> None)
    ctx.Methods.prog assign;
  let homes =
    Partition.Baselines.naive_homes ~merge:ctx.Methods.merge
      ~profile:ctx.Methods.profile ~assign ~num_clusters:2 ()
  in
  let freqs =
    Partition.Baselines.group_frequencies ~merge:ctx.Methods.merge
      ~profile:ctx.Methods.profile ~assign ~num_clusters:2
  in
  List.iter
    (fun (gid, freq) ->
      let g = M.group ctx.Methods.merge gid in
      match g.M.objects with
      | [] -> ()
      | o :: _ ->
          let c = List.assoc o homes in
          Alcotest.(check bool) "placed at max frequency" true
            (freq.(c) >= freq.(1 - c)))
    freqs

let test_bug_partitioner () =
  (* the greedy baseline must also produce valid, semantics-preserving
     partitions *)
  let b = Benchsuite.Suite.find "rawdaudio" in
  let p = Gdp_core.Pipeline.prepare b in
  let ctx = Gdp_core.Pipeline.context ~machine p in
  let assign =
    Vliw_sched.Assignment.create
      ~num_clusters:(Vliw_machine.num_clusters machine)
  in
  Partition.Bug.partition ~machine
    ~objects_of:(Methods.objects_of ctx)
    ~lock_of:(fun _ -> None)
    ctx.Methods.prog assign;
  check_inv1 ctx.Methods.prog assign;
  let clustered = Vliw_sched.Move_insert.apply ctx.Methods.prog assign in
  let re =
    Vliw_interp.Interp.run clustered.Vliw_sched.Move_insert.cprog
      ~input:b.Benchsuite.Bench_intf.input
  in
  Alcotest.(check bool) "semantics preserved" true
    (Helpers.equal_outputs re.Vliw_interp.Interp.outputs
       p.Gdp_core.Pipeline.reference.Vliw_interp.Interp.outputs)

let test_method_names () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "of_string inverts to_string" true
        (Methods.of_string (Methods.to_string m) = Ok m))
    Methods.all;
  (match Methods.of_string "frobnicate" with
  | Ok _ -> Alcotest.fail "unknown name must be rejected"
  | Error msg ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "error names the bad input" true
        (contains msg "frobnicate"));
  (* the legacy abbreviation is gone: only canonical names parse *)
  Alcotest.(check bool) "pm rejected" true (Result.is_error (Methods.of_string "pm"))

let suite =
  [
    Alcotest.test_case "merge: ambiguous objects" `Quick
      test_merge_ambiguous_objects;
    Alcotest.test_case "merge: shared operations" `Quick test_merge_shared_ops;
    Alcotest.test_case "merge: sizes accounted" `Quick test_merge_group_sizes;
    Alcotest.test_case "merge: partition property" `Quick
      test_merge_partition_property;
    Alcotest.test_case "rhop: unified invariants" `Quick
      test_rhop_unified_invariants;
    Alcotest.test_case "rhop: locks respected" `Quick test_rhop_respects_locks;
    Alcotest.test_case "est: colocation preferred" `Quick
      test_est_prefers_colocation;
    prop_est_incremental;
    Alcotest.test_case "est: incremental cost on every suite block" `Quick
      test_est_incremental_suite;
    Alcotest.test_case "rhop: estimator relevels stay local" `Quick
      test_rhop_relevels_local;
    Alcotest.test_case "gdp: balances data bytes" `Quick test_gdp_balances_data;
    Alcotest.test_case "gdp: merge groups stay together" `Quick
      test_gdp_groups_stay_together;
    Alcotest.test_case "profile max: balance cap" `Quick
      test_profile_max_balance_cap;
    Alcotest.test_case "naive: max-frequency placement" `Quick
      test_naive_max_frequency;
    Alcotest.test_case "bug: greedy baseline partitioner" `Quick
      test_bug_partitioner;
    Alcotest.test_case "method names" `Quick test_method_names;
  ]
