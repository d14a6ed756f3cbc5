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
   After each move neither lower bound may exceed the cost, and
   [Est.price] must return the cost when [best] is above it and a value
   from [best] up to the cost otherwise, for [best] just below, at,
   just above the cost and at random.  The prices come in random order
   and [Est.current] is read after only about half the moves, so the
   levels an early exit leaves unsettled carry into later moves.
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
  let check step moved =
    let full = Est.cost est cluster in
    let above what v = if v > full then Some (what, v) else None in
    let price best () =
      let v = Est.price est ~best moved in
      if (full < best && v <> full) || (full >= best && (v < best || v > full))
      then Some (Printf.sprintf "price against %d" best, v)
      else None
    in
    let prices =
      [ full - 1; full; full + 1; full - 20_000 + Random.State.int st 40_001 ]
      |> List.map (fun best -> (Random.State.bits st, price best))
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map snd
    in
    let current () =
      let v = Est.current est in
      if v <> full then Some ("incremental", v) else None
    in
    (fun () -> above "path bound" (Est.path_bound est))
    :: (fun () -> above "group bound" (Est.group_bound est moved))
    :: (prices
       @ if step = 0 || Random.State.bool st then [ current ] else [])
    |> List.find_map (fun f -> f ())
    |> Option.map (fun (what, v) ->
           Printf.sprintf "%s, block %s (%d ops), move %d: %s %d, full %d"
             machine.Vliw_machine.name
             (Label.to_string (Block.label block))
             n step what v full)
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
      (match batch with
      | (_, c) :: _ when List.for_all (fun (_, c') -> c' = c) batch ->
          Est.move est (List.map fst batch) c
      | _ -> List.iter (fun (i, c) -> Est.move est [ i ] c) batch);
      match check step (List.sort_uniq compare (List.map fst batch)) with
      | None -> go (step + 1) undo
      | mismatch -> mismatch
  in
  match check 0 [] with None -> go 1 [] | mismatch -> mismatch

(* [machine] without the units of one FU kind on one cluster, which
   [Vliw_machine.v] allows: the estimate charges a cluster that holds
   ops of a kind it has no unit for 1_000_000. *)
let without_unit st (machine : Vliw_machine.t) =
  let drop = Random.State.int st (Array.length machine.clusters)
  and kind = Random.State.int st Vliw_machine.fu_kind_count in
  let clusters =
    Array.mapi
      (fun c (cl : Vliw_machine.cluster) ->
        if c <> drop then cl
        else
          {
            cl with
            fu_counts =
              Array.mapi (fun k n -> if k = kind then 0 else n) cl.fu_counts;
          })
      machine.clusters
  in
  Vliw_machine.v ~name:(machine.name ^ "-without-unit") ~clusters
    ~network:machine.network ~latencies:machine.latencies

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
        (fun machine ->
          List.iter
            (fun b ->
              match incremental_mismatch ~machine st ~moves:50 b with
              | None -> ()
              | Some msg -> QCheck.Test.fail_report msg)
            (blocks prog))
        [ machine; without_unit st machine ];
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
   blocks, the incremental one only those downstream of the group, and
   [Est.price] not even those for a candidate its bounds rule out.
   mpeg2dec takes 347 348 relevels for 100 335 candidates, 3.5 each;
   pricing every candidate in full took 8.6 each. *)
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
  if relevels >= 5 * candidates then
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

(* ------------------------------------------------------------------ *)
(* Pinned GDP partitions                                               *)

(* Recorded from the graph partitioner before its allocation-free
   rewrite: (benchmark, preset, GDP edge cut, digest of [part_of_unit])
   for every suite benchmark on every machine preset.  The rewrite makes
   the same moves, so every partition must stay bit-identical. *)
let pinned_gdp =
  [
    ("rawcaudio", "paper", 1028, "f4b49ed4e80d99df");
    ("rawdaudio", "paper", 2052, "8340d5b6f3f3650c");
    ("g721enc", "paper", 804, "1e614a53ac8f3649");
    ("g721dec", "paper", 804, "53f5e2be8e189f9a");
    ("cjpeg", "paper", 1236, "9cd662297d96ded8");
    ("djpeg", "paper", 1028, "1a4c6e467f6b4ccc");
    ("mpeg2enc", "paper", 1759, "88630b8131c6e879");
    ("mpeg2dec", "paper", 791, "d07349c4b11ddd12");
    ("epic", "paper", 3245, "6a483a1df0d47352");
    ("unepic", "paper", 5674, "101a1c159311cdde");
    ("gsmenc", "paper", 1092, "444bfb3da93395ec");
    ("gsmdec", "paper", 813, "a25b8809bbf25f48");
    ("pegwit", "paper", 1419, "a3b59ab214e74d7c");
    ("fir", "paper", 2408, "9597e2d1a9dd54b1");
    ("fsed", "paper", 870, "1ca58885c9c165db");
    ("sobel", "paper", 967, "987c46f735adf0fc");
    ("viterbi", "paper", 25131, "477cf85636ffe8cf");
    ("iirflt", "paper", 604, "7d03159585124705");
    ("rawcaudio", "kway4", 2056, "8b279b87d4763d24");
    ("rawdaudio", "kway4", 5180, "53c3cff1b18d2825");
    ("g721enc", "kway4", 5014, "51695055ef605e77");
    ("g721dec", "kway4", 2009, "a4f4d8919e9e87b6");
    ("cjpeg", "kway4", 2339, "95a16e2574aa6067");
    ("djpeg", "kway4", 3348, "a830729a717252ff");
    ("mpeg2enc", "kway4", 6729, "0ce041473e35c37c");
    ("mpeg2dec", "kway4", 2982, "fd3c96e9961c99fd");
    ("epic", "kway4", 5959, "a6bcf0498740cac5");
    ("unepic", "kway4", 10154, "4fc7deb61abce241");
    ("gsmenc", "kway4", 2194, "8c197446773a1ad6");
    ("gsmdec", "kway4", 1665, "dbf9ca9fbe88771e");
    ("pegwit", "kway4", 4257, "928ecb7be1c2e384");
    ("fir", "kway4", 27679, "501d994b5ab3df83");
    ("fsed", "kway4", 2169, "7bb719d9f572518c");
    ("sobel", "kway4", 14577, "e456c8a244bff1b0");
    ("viterbi", "kway4", 25135, "4d097dc25b41a877");
    ("iirflt", "kway4", 1529, "856d25236621275f");
    ("rawcaudio", "ring8", 4647, "f8d1c7b8c2e30de1");
    ("rawdaudio", "ring8", 10802, "426c2c9d3f7e9589");
    ("g721enc", "ring8", 7041, "a1b213d2cca12ebd");
    ("g721dec", "ring8", 4045, "9b89bdf5d20c12b4");
    ("cjpeg", "ring8", 4095, "0b5ad17b0941fb5f");
    ("djpeg", "ring8", 5172, "392769c610b7d39a");
    ("mpeg2enc", "ring8", 12833, "33d9d007f7494449");
    ("mpeg2dec", "ring8", 8088, "e29a2a42b7840320");
    ("epic", "ring8", 16948, "188a22496a434d55");
    ("unepic", "ring8", 14860, "369921ec7e43075f");
    ("gsmenc", "ring8", 3273, "28e1d2bc1a1d3bbc");
    ("gsmdec", "ring8", 11729, "2d6472039a71e938");
    ("pegwit", "ring8", 8996, "833a8fcf67d2ebe3");
    ("fir", "ring8", 39726, "2e586115a2bb291f");
    ("fsed", "ring8", 7041, "dd3643bcc11e21af");
    ("sobel", "ring8", 19174, "f08ffa2295eb777a");
    ("viterbi", "ring8", 35624, "e893c66d74af7b68");
    ("iirflt", "ring8", 3046, "d9b89f7cd50ab794");
    ("rawcaudio", "mesh16", 6214, "02d6eb7333174d55");
    ("rawdaudio", "mesh16", 12866, "b48a8319e882ec6f");
    ("g721enc", "mesh16", 8860, "a91207e0b41b1514");
    ("g721dec", "mesh16", 4847, "2f1c88899d83ce76");
    ("cjpeg", "mesh16", 5734, "43005b56ccbd8344");
    ("djpeg", "mesh16", 8716, "1973c880f77943cc");
    ("mpeg2enc", "mesh16", 19988, "438c14d22dd47a36");
    ("mpeg2dec", "mesh16", 14500, "854be35eb0a1e94c");
    ("epic", "mesh16", 20743, "4553cb12ac70dcc0");
    ("unepic", "mesh16", 18594, "2ad3216be48b04a0");
    ("gsmenc", "mesh16", 19576, "020fd6d7b7c30e64");
    ("gsmdec", "mesh16", 20597, "4c93007aaf61756f");
    ("pegwit", "mesh16", 15188, "bf607ad644b00b11");
    ("fir", "mesh16", 60172, "f8274b64e14762d8");
    ("fsed", "mesh16", 13533, "9b46abbcb7d1c1fb");
    ("sobel", "mesh16", 29051, "b8351dc1adf7658a");
    ("viterbi", "mesh16", 66324, "ab0344985b00b5f2");
    ("iirflt", "mesh16", 5458, "b3b1eade790c2b10");
    ("rawcaudio", "hetero4", 2056, "8b279b87d4763d24");
    ("rawdaudio", "hetero4", 5180, "53c3cff1b18d2825");
    ("g721enc", "hetero4", 5014, "51695055ef605e77");
    ("g721dec", "hetero4", 2009, "a4f4d8919e9e87b6");
    ("cjpeg", "hetero4", 2339, "95a16e2574aa6067");
    ("djpeg", "hetero4", 3348, "a830729a717252ff");
    ("mpeg2enc", "hetero4", 6729, "0ce041473e35c37c");
    ("mpeg2dec", "hetero4", 2982, "fd3c96e9961c99fd");
    ("epic", "hetero4", 5959, "a6bcf0498740cac5");
    ("unepic", "hetero4", 10154, "4fc7deb61abce241");
    ("gsmenc", "hetero4", 2194, "8c197446773a1ad6");
    ("gsmdec", "hetero4", 1665, "dbf9ca9fbe88771e");
    ("pegwit", "hetero4", 4257, "928ecb7be1c2e384");
    ("fir", "hetero4", 27679, "501d994b5ab3df83");
    ("fsed", "hetero4", 2169, "7bb719d9f572518c");
    ("sobel", "hetero4", 14577, "e456c8a244bff1b0");
    ("viterbi", "hetero4", 25135, "4d097dc25b41a877");
    ("iirflt", "hetero4", 1529, "856d25236621275f");
  ]

(* Recorded before the clustered program's schedule was shared by the
   cycle model, the simulator, attribution and explain: (benchmark,
   preset, method, total cycles, dynamic moves, digest of every op's
   cluster in the clustered program) for a plain compile of every suite
   benchmark on every preset.  The seventh column, recorded before the
   dependence graphs went flat and the list scheduler moved to ready
   queues, digests the schedule itself: every block's length and its
   entries' (op id, cycle, cluster).  The eighth, recorded before
   attribution read each op's timing from the schedule's entries,
   digests [Attrib.of_clustered]'s totals ([digest_attribution]). *)
let pinned_compiles =
  [
    ("rawcaudio", "paper", "gdp", 32789, 2049, "abffe4117ad3495e",
     "6894ace6ba97a4f0", "585d1926ff4e0fa7");
    ("rawcaudio", "paper", "profile-max", 32789, 2049, "abffe4117ad3495e",
     "6894ace6ba97a4f0", "585d1926ff4e0fa7");
    ("rawcaudio", "paper", "naive", 36893, 4610, "b0b5818e9f43f4aa",
     "185989bb943398d0", "cacc5c407b7e91a4");
    ("rawcaudio", "paper", "unified", 36886, 4609, "dfa8485d84c7e97f",
     "484eb094c81f7675", "4ef1de3812c95f95");
    ("rawdaudio", "paper", "gdp", 65563, 5123, "5645618c57e47ef5",
     "17e3eefe1393a9ef", "e47092264cf99107");
    ("rawdaudio", "paper", "profile-max", 85013, 15362, "79d8ea05b628bc9c",
     "30bdb7ee2788ddeb", "7985b4867899330f");
    ("rawdaudio", "paper", "naive", 72722, 9216, "117ed391c7f3d5b2",
     "67c52336605d8f17", "596ff7f9d2cd9a41");
    ("rawdaudio", "paper", "unified", 67606, 9218, "a0cace6e4dfa3050",
     "0bd6886babcaa270", "1ef3ca0019dad562");
    ("g721enc", "paper", "gdp", 38424, 2400, "13d7d8da8a6bd27a",
     "e9da8cd2a8ef9b62", "ed3e4ca83e6a8c3e");
    ("g721enc", "paper", "profile-max", 38427, 2001, "0f0ded6d65772596",
     "ad2e19f5f634054f", "0376d917109ab8bf");
    ("g721enc", "paper", "naive", 38427, 2401, "84302d7bb4f1f36f",
     "f1a35669ec3afe4a", "71f439545d6a2e13");
    ("g721enc", "paper", "unified", 36427, 1602, "9a075ee14eeaff8a",
     "b277a7a04c92b9ae", "f6ed2b59a255304c");
    ("g721dec", "paper", "gdp", 22823, 1601, "55438342ef855676",
     "09a0173fa50d0b88", "2d2e42ae2f421fb9");
    ("g721dec", "paper", "profile-max", 23226, 2402, "f2312eaf278d4c49",
     "dfb07bf0ac692699", "0d2d89ee373a3f8c");
    ("g721dec", "paper", "naive", 19626, 801, "b90a9eb5edf43077",
     "b163a2bbd82b7792", "083a5f0036130a85");
    ("g721dec", "paper", "unified", 19626, 802, "32e7e3e2da6ec5fc",
     "dcd75fed6fb6c42d", "a7a13ae97ac756eb");
    ("cjpeg", "paper", "gdp", 25146, 4132, "aefa9819e26ebacd",
     "20a2e02499d5b569", "3d022b0c4b6df5d2");
    ("cjpeg", "paper", "profile-max", 25749, 3779, "0215bf94b80b8356",
     "4ae0012df2544e54", "e157c27c5b98af43");
    ("cjpeg", "paper", "naive", 31502, 3585, "c15041e37d524134",
     "720256b51b79ab23", "579696abea4f9653");
    ("cjpeg", "paper", "unified", 24462, 963, "3470aaa18241b960",
     "1ed09771b778e2d3", "ee96e1d144e87711");
    ("djpeg", "paper", "gdp", 31055, 2819, "80d480068001c9b7",
     "94a213406b6371a9", "6eb8dc415b1f32ce");
    ("djpeg", "paper", "profile-max", 33230, 3970, "62af80bc09fb8e51",
     "be60a861c049ce81", "cfc043303d7a73ca");
    ("djpeg", "paper", "naive", 27859, 1026, "bd4e5930c7fbb6f0",
     "ff1685243431b9c0", "40d0b86a1b1d9953");
    ("djpeg", "paper", "unified", 26579, 516, "2d9b99ca420aa9a7",
     "fffbfd51d304ea87", "c144c26b1132f8c5");
    ("mpeg2enc", "paper", "gdp", 32807, 12992, "6b36dd58931c53e5",
     "3a39ea7736c3f7d1", "fe4e400a3cb77c42");
    ("mpeg2enc", "paper", "profile-max", 32197, 11833, "62cdd97dd0b58cfb",
     "65d7e632fa39aa91", "bebf11c9d3a4166f");
    ("mpeg2enc", "paper", "naive", 31689, 13728, "c9d3965e7c70ce34",
     "aafbece7048c58c8", "26bcd414dddccfd1");
    ("mpeg2enc", "paper", "unified", 27324, 11857, "511b8b4703183da7",
     "98e003cd84b90873", "7b607c74cda597d1");
    ("mpeg2dec", "paper", "gdp", 32052, 11899, "05a91d77cf811c25",
     "d975cfaf709a27d3", "8b3c383cfdd6f6ce");
    ("mpeg2dec", "paper", "profile-max", 32672, 8665, "cd705ee0a0bcccbe",
     "e7c091d529b56600", "ff72583a79a91d1f");
    ("mpeg2dec", "paper", "naive", 33640, 13536, "2320506c4b21c59f",
     "dbd854d43b5d18e4", "10529e84df2a498c");
    ("mpeg2dec", "paper", "unified", 29946, 9217, "0682fbc133b78d60",
     "856ead595cec3315", "ccfa5c5363b0a7b4");
    ("epic", "paper", "gdp", 49817, 18066, "8a659a1d7ef452ba",
     "faedca1d0148c07e", "78c218b5278efc97");
    ("epic", "paper", "profile-max", 48196, 9602, "9ccb67cb2bf73d1b",
     "1b907767de7bf8f0", "6f746d5ed3f52155");
    ("epic", "paper", "naive", 48708, 12929, "bd436fc95eec83cd",
     "531aaf938e625123", "118cf55b63a86426");
    ("epic", "paper", "unified", 45256, 8963, "55f8579fa8bf3f76",
     "abd5b57cf1d92ffd", "6e4a4250c6442684");
    ("unepic", "paper", "gdp", 103928, 34230, "7724a86ab8920c28",
     "862b3a7a3cd83b5e", "ffdd66d3cf805588");
    ("unepic", "paper", "profile-max", 100002, 35747, "8b198b8270fa0f2d",
     "02b622d41ea6ae42", "4d70274bdd71bff0");
    ("unepic", "paper", "naive", 99618, 45348, "a9419c930796598d",
     "2bc27d21f4e07479", "51747bccdaf8af77");
    ("unepic", "paper", "unified", 93090, 38181, "14d005205f675ed9",
     "0e86d9549807f1b9", "0aaee8fe6e698af4");
    ("gsmenc", "paper", "gdp", 68651, 1920, "3a1be40b004f2c14",
     "0fb47ad7ff2c0901", "ce8d165054e4c61d");
    ("gsmenc", "paper", "profile-max", 72228, 4740, "d6e075cc0071c538",
     "6208c4f57a2d8e9e", "95aa8f97d4730670");
    ("gsmenc", "paper", "naive", 65916, 2628, "034a84a0742f928d",
     "932f192d01507ee6", "c88c73bd983a7887");
    ("gsmenc", "paper", "unified", 63327, 1502, "dc91c8eb510d8daa",
     "ead11cbff62d79a2", "ad028f57262d4ec4");
    ("gsmdec", "paper", "gdp", 56232, 4401, "df09dd60fc954d24",
     "c4d7650107cccfd5", "63633f2f65678551");
    ("gsmdec", "paper", "profile-max", 55082, 2031, "64370bb4f5f0962e",
     "5ad078f223469c36", "53476418f412a90a");
    ("gsmdec", "paper", "naive", 53130, 830, "b84bdb4006845f8e",
     "cf60ade19de153a3", "d90b045eddfe55cb");
    ("gsmdec", "paper", "unified", 53063, 812, "ffdbbed5b6df4cc8",
     "6fb9d60c33022774", "5679baa6ad9727c3");
    ("pegwit", "paper", "gdp", 22262, 1281, "0c66f8ab3ddeeb2c",
     "53b4c3eb2916aa98", "371c2a184bdb7ee8");
    ("pegwit", "paper", "profile-max", 27510, 6401, "b378298c1dd40ace",
     "bdac7965fbc77f33", "8539f94d9f34887d");
    ("pegwit", "paper", "naive", 23160, 3073, "8ad59a96c96b24f8",
     "546ccfe01a6f0bda", "18039764fbb0bc98");
    ("pegwit", "paper", "unified", 20728, 1026, "be6cc1807a70c0dd",
     "ec2ce9659f9c6ff5", "ea70527cdd42b11d");
    ("fir", "paper", "gdp", 54628, 34200, "c730428352a45324",
     "4fa8a28c2adbb11f", "b4377847aac65de1");
    ("fir", "paper", "profile-max", 54628, 34200, "c730428352a45324",
     "4fa8a28c2adbb11f", "b4377847aac65de1");
    ("fir", "paper", "naive", 72028, 30601, "9271113645110f2e",
     "1554b79df812fabf", "86f2b2db977d7387");
    ("fir", "paper", "unified", 66627, 18004, "35176f3aeab6062f",
     "8a666a0a6577ba7c", "2197080d02d516c9");
    ("fsed", "paper", "gdp", 42858, 9965, "df0dd11bb4bad87b",
     "adbcb93ed5aaec1e", "2322c7519d959b90");
    ("fsed", "paper", "profile-max", 43036, 4608, "4779495db7312b4b",
     "e533d004dacfeaa2", "e3b4efb065be9a71");
    ("fsed", "paper", "naive", 33244, 576, "169b40af9b4c4f12",
     "96cacb9488c5835d", "f84857e919462575");
    ("fsed", "paper", "unified", 33246, 577, "491a0035f0615283",
     "5f2a6250abf75d7b", "ca8f9b82db143177");
    ("sobel", "paper", "gdp", 47888, 15335, "19a4c03efb203321",
     "0f29ec0bd799333e", "0794774edf653fd6");
    ("sobel", "paper", "profile-max", 51728, 12231, "b36fb078b3fdd00b",
     "57fd5efc2844bc71", "321e2fa9abe72b3e");
    ("sobel", "paper", "naive", 52683, 14401, "8fe9edd37460e274",
     "07f8f849c4023543", "ddc1f34da592c03e");
    ("sobel", "paper", "unified", 52683, 8642, "fd094e7356066f11",
     "3bfc644aa5741df9", "cf0018da2cdf5515");
    ("viterbi", "paper", "gdp", 182143, 25088, "ab8ba91394e303d4",
     "e9b0310d590f023a", "3ebd545cf79e33c3");
    ("viterbi", "paper", "profile-max", 191615, 46082, "701e61ac0a1f2199",
     "75fa2c83a6ad5f94", "e07ffa99eb76effb");
    ("viterbi", "paper", "naive", 214654, 45825, "09c54e61da9c4cc0",
     "cc1cf28a1367a826", "c9ad1cbf904ad590");
    ("viterbi", "paper", "unified", 191618, 29187, "1a47931fc471fa0a",
     "a835b437c336d992", "604774083c6bddf5");
    ("iirflt", "paper", "gdp", 17176, 902, "698b1e14072622b0",
     "8e052ff7d53a3049", "ba8c348c00288017");
    ("iirflt", "paper", "profile-max", 18706, 1511, "c5f4d4f83c3c33bc",
     "56252f8f5f0fc609", "9b13ec641374c356");
    ("iirflt", "paper", "naive", 17263, 918, "1b6e4250502257bf",
     "3bd49a66161e216a", "86229418a6f5238f");
    ("iirflt", "paper", "unified", 17175, 902, "d3c9f4e954d7f2d3",
     "bef785b1a75f1d4c", "f0182fd21bba26bc");
    ("rawcaudio", "kway4", "gdp", 35354, 2562, "876364a9370afcd8",
     "72d9919c4defa681", "886a30c7fe02d2a5");
    ("rawcaudio", "kway4", "profile-max", 37911, 5634, "f6192674bebaba7f",
     "30ce513bd23e4784", "3f00dd53b07da0b9");
    ("rawcaudio", "kway4", "naive", 40475, 6659, "bfe17f69c1800a6c",
     "18821e80fc6c8db3", "3bdc43d3637f93cb");
    ("rawcaudio", "kway4", "unified", 37910, 5634, "6096d62a0ec70ccb",
     "3a4ffafbe811459c", "229ffa4cd2611963");
    ("rawdaudio", "kway4", "gdp", 80923, 14340, "81f4096e1c5ea681",
     "04ef1b446667c59c", "8bd8d9d6bc75db9d");
    ("rawdaudio", "kway4", "profile-max", 82969, 13316, "37c1ac94e7459a2a",
     "e32d46e0b0464726", "8458c470b1d7f7ac");
    ("rawdaudio", "kway4", "naive", 82963, 14337, "e302f162dbe56b4e",
     "36f443b4f75b4e53", "1288cdef9c43a60d");
    ("rawdaudio", "kway4", "unified", 72727, 10243, "84755a83220a3e40",
     "0a27f6231558d836", "66c90a33ca7fff8f");
    ("g721enc", "kway4", "gdp", 49626, 7201, "4a289adc215a6ecc",
     "2d488a85dd0c1616", "528b1548dadf0a25");
    ("g721enc", "kway4", "profile-max", 55625, 11201, "d7b9d780ad31cae0",
     "449f6620fbe71cb4", "cf00e9e72cf96bca");
    ("g721enc", "kway4", "naive", 43224, 3201, "1f7ea64d1464ce99",
     "f63ccb578faf2c3a", "54c342a0c7e886b9");
    ("g721enc", "kway4", "unified", 41224, 2402, "5c1fdfe3cb5421b4",
     "0e62b2f7d4d6e591", "6f7ce80ee0207bb6");
    ("g721dec", "kway4", "gdp", 24827, 2002, "ec758427eb52c742",
     "37ffe2d01cbe95a1", "fc342dd6236433f3");
    ("g721dec", "kway4", "profile-max", 27624, 7602, "fb33ea8fae50a0f3",
     "274a3e5ab6621f2a", "6e4db39aee3d8845");
    ("g721dec", "kway4", "naive", 21624, 1601, "c430543a974b2696",
     "18c8dbf04704570b", "9951b27a63151e69");
    ("g721dec", "kway4", "unified", 21624, 1602, "91c520e78c77d933",
     "9eb756eb7eb4c983", "1d3ef35b5618c79a");
    ("cjpeg", "kway4", "gdp", 28307, 3971, "c1904ed2a9e3ade5",
     "3996f513043deb2c", "3d0ab40f855f0573");
    ("cjpeg", "kway4", "profile-max", 27987, 4035, "3572ee17f553deaa",
     "0c27c71805564dba", "d091b3e13c066c0e");
    ("cjpeg", "kway4", "naive", 31502, 3585, "275a27212d20517a",
     "a7ce25540b6580cd", "8aa33ed52672eefd");
    ("cjpeg", "kway4", "unified", 24462, 963, "577c377f7754d118",
     "1e3a4bc771725b4c", "57b9247fb4f11678");
    ("djpeg", "kway4", "gdp", 35919, 8196, "d7588cee685482a7",
     "0bc5a8e532f82fab", "fd929aef267ec73d");
    ("djpeg", "kway4", "profile-max", 33619, 4868, "243c36418ca1ebea",
     "4011b4cf64ade6b6", "bbe0cd9f6e06cfde");
    ("djpeg", "kway4", "naive", 27859, 1026, "b876964237336287",
     "92efa56bda4df455", "40d0b86a1b1d9953");
    ("djpeg", "kway4", "unified", 26579, 516, "896444144c20f051",
     "b7c7853582f9c995", "c144c26b1132f8c5");
    ("mpeg2enc", "kway4", "gdp", 33114, 15751, "9a26552e4e90213c",
     "6bb32dccf7dff32f", "c0d5d17578fb9c10");
    ("mpeg2enc", "kway4", "profile-max", 32231, 12608, "011e505a70aff8eb",
     "41a27a4e5c53dc70", "af0bb0c7ef5fef2d");
    ("mpeg2enc", "kway4", "naive", 31784, 14112, "4ec87747a539db28",
     "01b2150f16de21c1", "71e5bbcb7bff4c26");
    ("mpeg2enc", "kway4", "unified", 28236, 12961, "10e247f51524bc7f",
     "eaf0dd868d2ec7d6", "114202383bf10215");
    ("mpeg2dec", "kway4", "gdp", 36756, 10154, "571265de26db60fe",
     "ca90c0af31da3ae1", "9be2e6bc8fc89023");
    ("mpeg2dec", "kway4", "profile-max", 31570, 10266, "9caa7ec54aca7c03",
     "c4772437c74c9472", "91deed9044957594");
    ("mpeg2dec", "kway4", "naive", 34119, 14112, "f52ca2e2c38f8db8",
     "72badbfdde75b226", "f8b55950f66bf3c6");
    ("mpeg2dec", "kway4", "unified", 29754, 9985, "dade1d2d9271912c",
     "618b94c06285ba5f", "4d5c97461847143a");
    ("epic", "kway4", "gdp", 50970, 23187, "f3566564af504b26",
     "03c86c80f47b0b52", "6b846654da951bd5");
    ("epic", "kway4", "profile-max", 50116, 11522, "7bc6f2970adcbf0e",
     "1cc1983620151378", "2848a408cb05e42d");
    ("epic", "kway4", "naive", 48708, 12929, "bd436fc95eec83cd",
     "531aaf938e625123", "118cf55b63a86426");
    ("epic", "kway4", "unified", 45256, 8963, "55f8579fa8bf3f76",
     "abd5b57cf1d92ffd", "6e4a4250c6442684");
    ("unepic", "kway4", "gdp", 115576, 51640, "dccb2391d60e3eaf",
     "2d6507de8330ca39", "2bddd86132648956");
    ("unepic", "kway4", "profile-max", 117202, 47379, "c6881de673303fc4",
     "c255c76cb0c682d1", "60a32be86c86574f");
    ("unepic", "kway4", "naive", 99618, 45348, "a9419c930796598d",
     "2bc27d21f4e07479", "51747bccdaf8af77");
    ("unepic", "kway4", "unified", 93090, 38181, "14d005205f675ed9",
     "0e86d9549807f1b9", "0aaee8fe6e698af4");
    ("gsmenc", "kway4", "gdp", 136151, 21372, "f73006f0a1950f25",
     "914b5533743835ec", "b50b9bff03ed4260");
    ("gsmenc", "kway4", "profile-max", 72227, 4740, "84a8e5877a141ffa",
     "acf82e9b908de3f4", "696d47849ce50fae");
    ("gsmenc", "kway4", "naive", 65915, 2628, "a49444d335434dd7",
     "c390b4c41b9b0184", "1c2255681c4e4fa9");
    ("gsmenc", "kway4", "unified", 63327, 1502, "eb904f669129856d",
     "91cce1042a86ada7", "6b7a8f21a45617fd");
    ("gsmdec", "kway4", "gdp", 57834, 5201, "c62bdf2c25641aaf",
     "1766756989e90897", "54ffc2221e75405f");
    ("gsmdec", "kway4", "profile-max", 59082, 2431, "e858d458a008ac4b",
     "685040f4909c81e9", "6e35e5a35e592a70");
    ("gsmdec", "kway4", "naive", 53130, 830, "b84bdb4006845f8e",
     "cf60ade19de153a3", "d90b045eddfe55cb");
    ("gsmdec", "kway4", "unified", 53063, 812, "ffdbbed5b6df4cc8",
     "6fb9d60c33022774", "5679baa6ad9727c3");
    ("pegwit", "kway4", "gdp", 28957, 7491, "7b104217c9d2801b",
     "bd5b192a956f74b6", "48920b33ca8ec49e");
    ("pegwit", "kway4", "profile-max", 28317, 7235, "6301cfd4a4db23bb",
     "7cd8aa142db80827", "a6a341184520da57");
    ("pegwit", "kway4", "naive", 23160, 3073, "2b0c1f0e272219fe",
     "a3a0c9deccfafd98", "18039764fbb0bc98");
    ("pegwit", "kway4", "unified", 20728, 1026, "bb94892d230e4215",
     "cb88c7407f183387", "ea70527cdd42b11d");
    ("fir", "kway4", "gdp", 61827, 34201, "b78bd05a3e300a19",
     "a8858e279c8a4fba", "d9820e912a309eb8");
    ("fir", "kway4", "profile-max", 58227, 33601, "2e3e99965b8dec82",
     "5871866f4006944c", "a93429d0f6c2bd8d");
    ("fir", "kway4", "naive", 68427, 38400, "b48e4d5ef3b7491e",
     "22f529cb607cf535", "20a651d5ad0fc19e");
    ("fir", "kway4", "unified", 58827, 26404, "cddd73444c0112bb",
     "2365330c7bad6063", "e8233cfbdd42e440");
    ("fsed", "kway4", "gdp", 45739, 10542, "93fa61e51ba91eab",
     "22bb1ee329e3d232", "e56d1a06f39a31ad");
    ("fsed", "kway4", "profile-max", 47365, 7202, "e16a894f66ffb300",
     "35e1c6e190a4fc1d", "098bf1f82590e186");
    ("fsed", "kway4", "naive", 33247, 3457, "56de1692c1873937",
     "b742e086049327be", "74107a376561270f");
    ("fsed", "kway4", "unified", 33248, 1731, "14f4b5c61931c4c8",
     "9c59dd880bd7ee03", "fe5a72a1ad4e0b2a");
    ("sobel", "kway4", "gdp", 51274, 16077, "930cf7fe10364449",
     "a7fc942d56b27095", "bf89b52d8aa223b2");
    ("sobel", "kway4", "profile-max", 51274, 16077, "038ba77636eae417",
     "556829e6cfb00760", "609ed48e7afaf5c9");
    ("sobel", "kway4", "naive", 46923, 14593, "380836dd2ae91956",
     "f7f0b99903104b25", "06c26ee475ea145a");
    ("sobel", "kway4", "unified", 44043, 10563, "798b21ce2cc37ba3",
     "13263ad63c03188c", "1a91230572c9637a");
    ("viterbi", "kway4", "gdp", 225671, 64003, "ba61f976186b1f09",
     "f8aa6b0ecd54714f", "4e1fa7c1d35847c6");
    ("viterbi", "kway4", "profile-max", 222851, 54274, "8aa56bf5bfdc2516",
     "9065ef9a2ea5d96e", "fa17fad597076826");
    ("viterbi", "kway4", "naive", 214654, 45825, "09c54e61da9c4cc0",
     "cc1cf28a1367a826", "c9ad1cbf904ad590");
    ("viterbi", "kway4", "unified", 191618, 29187, "1a47931fc471fa0a",
     "a835b437c336d992", "604774083c6bddf5");
    ("iirflt", "kway4", "gdp", 19908, 2112, "bdbade4a303a89c5",
     "9f070fd2dc09e13a", "56638c800908301b");
    ("iirflt", "kway4", "profile-max", 18408, 1812, "6f089e7b770aa120",
     "ca4bf41c61b8c0b5", "1d497a7eab117261");
    ("iirflt", "kway4", "naive", 17262, 918, "a97c2dfe2593625a",
     "cb2789d297bca3ba", "11ae6048dd05ec84");
    ("iirflt", "kway4", "unified", 17175, 902, "05eafc16a37004e2",
     "bd3e49881325043f", "418cf9d451603daa");
    ("rawcaudio", "ring8", "gdp", 53809, 13318, "35d200bdd629a3ef",
     "667b6e30020e74b8", "3a6caac4714f5517");
    ("rawcaudio", "ring8", "profile-max", 33319, 6147, "db6ebba0170a523f",
     "bc14cbbf58ce95c4", "bde5f9ec644fab07");
    ("rawcaudio", "ring8", "naive", 51734, 9731, "ab2c83f53bc5fd0a",
     "b8d858284bf5fa9a", "60b59801260785e8");
    ("rawcaudio", "ring8", "unified", 49177, 8708, "4b9f22eda67caf10",
     "03c82899364a8ce6", "83602529977c497f");
    ("rawdaudio", "ring8", "gdp", 111665, 24584, "69a17e0c68cae41d",
     "3913bbedbfe23b5f", "fb6482c9e7a1ab6c");
    ("rawdaudio", "ring8", "profile-max", 120871, 13316, "79f88b609201151c",
     "8e38877a9161b137", "1f18bdab60045e21");
    ("rawdaudio", "ring8", "naive", 82963, 15361, "84bc1cae0abe02af",
     "8dc250a698ad2917", "6682cbddcb55ca00");
    ("rawdaudio", "ring8", "unified", 74775, 11267, "1238073223f50afa",
     "dcdd3c6f72ada0b6", "c999af1b2d279857");
    ("g721enc", "ring8", "gdp", 86431, 19204, "c7243aaceacce3b5",
     "a64753d3a14b3486", "6c15ea25fb107183");
    ("g721enc", "ring8", "profile-max", 66034, 16402, "9f154a38e59b5aa7",
     "efc5166b623c17a2", "bfc61f78b4616fa3");
    ("g721enc", "ring8", "naive", 49224, 4801, "ed1dfa8703e1d85f",
     "c188e0530c109f04", "9558ca6b5f9c4fb2");
    ("g721enc", "ring8", "unified", 43225, 4003, "b53759db27d7b6b4",
     "a16e7ab0b91c63c4", "b212ed5efdc68bbc");
    ("g721dec", "ring8", "gdp", 36836, 10003, "ba0e78f526f5c326",
     "79b3616f23137678", "147d182eca4371db");
    ("g721dec", "ring8", "profile-max", 39644, 11602, "04e80a53e5235397",
     "ae99dca42c20b746", "0a19c19a6fdebd43");
    ("g721dec", "ring8", "naive", 25624, 4001, "186cc5473ff2dd10",
     "2f22904b5944deba", "ea20d46352b89ead");
    ("g721dec", "ring8", "unified", 25624, 4002, "9f0e48a330e3dfdc",
     "4b9f3f9c37459e32", "a62a0567c5520983");
    ("cjpeg", "ring8", "gdp", 37510, 6567, "bcfc838d92ccb4af",
     "a548a3deadd5938b", "ba87d0665e35fe66");
    ("cjpeg", "ring8", "profile-max", 36061, 4932, "dddb088a39cae4e5",
     "30b3bb5e416b3c31", "7cd0eb4a3fb65951");
    ("cjpeg", "ring8", "naive", 31502, 3585, "275a27212d20517a",
     "a7ce25540b6580cd", "8aa33ed52672eefd");
    ("cjpeg", "ring8", "unified", 24462, 963, "577c377f7754d118",
     "1e3a4bc771725b4c", "57b9247fb4f11678");
    ("djpeg", "ring8", "gdp", 60636, 11333, "95092dcd1a109724",
     "4744485fb6ee3161", "bcdf13c865827fb9");
    ("djpeg", "ring8", "profile-max", 43727, 6403, "8380d454cad34365",
     "71ceb0084b38f8dd", "f228d9572487a6f3");
    ("djpeg", "ring8", "naive", 27859, 1026, "b876964237336287",
     "92efa56bda4df455", "40d0b86a1b1d9953");
    ("djpeg", "ring8", "unified", 26579, 516, "896444144c20f051",
     "b7c7853582f9c995", "c144c26b1132f8c5");
    ("mpeg2enc", "ring8", "gdp", 37912, 24800, "99448554a99318e1",
     "c2500700432f59cc", "d6a156460625bd26");
    ("mpeg2enc", "ring8", "profile-max", 38066, 20192, "037127ac793bce33",
     "19fc9648ad8324f4", "c0333594b7076edb");
    ("mpeg2enc", "ring8", "naive", 29480, 23472, "2daa35979b3d6c06",
     "efb6fffd2238476c", "98dd1b9781c565e3");
    ("mpeg2enc", "ring8", "unified", 25884, 16273, "61018d74e031dbc7",
     "c46122c1db79d331", "dc7755e5695c11f7");
    ("mpeg2dec", "ring8", "gdp", 40311, 19995, "79cc071403b3c56a",
     "bcc74a52335843cd", "07c9531b5213061d");
    ("mpeg2dec", "ring8", "profile-max", 49837, 17562, "de4ed6c5ce46cb8d",
     "0af2bcbff9064116", "4318ce7130d2cda6");
    ("mpeg2dec", "ring8", "naive", 31959, 18624, "fc37b4aa392c95b9",
     "7ba360a218283174", "c7d4e5a51c36046b");
    ("mpeg2dec", "ring8", "unified", 29946, 15265, "95e8e41f00e71e4d",
     "ea44d60fef378502", "fba94d14ed61dc2a");
    ("epic", "ring8", "gdp", 69923, 31251, "de346607d53856ee",
     "5ddc2444b326f6dd", "bf2bb7104419533c");
    ("epic", "ring8", "profile-max", 62923, 37250, "24a95df8842dff00",
     "f40486b46f4cde81", "45c3628a573e5d16");
    ("epic", "ring8", "naive", 49988, 24193, "e0db8f57120b2416",
     "51d0bd4a8afceaed", "bf83a7a7a28998c0");
    ("epic", "ring8", "unified", 46152, 16259, "b417aebcb3f5baac",
     "e84053bcae810095", "731b08cf93858e1e");
    ("unepic", "ring8", "gdp", 205401, 92309, "c39b4b62ba4f2b3c",
     "d14ba1488174c4fa", "8db7201bccbd254e");
    ("unepic", "ring8", "profile-max", 151933, 71351, "f7413906139ed6d7",
     "2fb7729fd5d35fb2", "79b29c67730b7575");
    ("unepic", "ring8", "naive", 116386, 65828, "b9558017b329f918",
     "63fb7de2649a5030", "77f039d105103228");
    ("unepic", "ring8", "unified", 98210, 52518, "a93097cad7eb3981",
     "12d62e1e0128c1af", "ae2cca596c217f4a");
    ("gsmenc", "ring8", "gdp", 208631, 25140, "0a5fe3286b895e1e",
     "191fc82a5b0df3b8", "b675ee7e66b06e1d");
    ("gsmenc", "ring8", "profile-max", 95627, 8676, "d22cc2c5dd19e797",
     "72f525f4a0549b3e", "29203d3cece59a86");
    ("gsmenc", "ring8", "naive", 65891, 2628, "a49444d335434dd7",
     "6923e096fd5993be", "336f61ff7eb84c7f");
    ("gsmenc", "ring8", "unified", 63327, 1502, "eb904f669129856d",
     "91cce1042a86ada7", "6b7a8f21a45617fd");
    ("gsmdec", "ring8", "gdp", 70794, 10051, "da9ddfe42d6acbfb",
     "5dc19a157a4bc2dd", "126150d4ba135906");
    ("gsmdec", "ring8", "profile-max", 69329, 10850, "367fc8710ccdf3d0",
     "0f703356a2f57ee6", "7c009e069d19a01b");
    ("gsmdec", "ring8", "naive", 65130, 9230, "34708b8e378e61b0",
     "661b657dd2c4b4ed", "06b9fce42737325a");
    ("gsmdec", "ring8", "unified", 53063, 6012, "6eb7ee871023f8e3",
     "829000b52a87f983", "ac481222f0297233");
    ("pegwit", "ring8", "gdp", 41122, 9923, "799bff55b31264a6",
     "4446dd6c100aa5d2", "d7d0ded789d59b8e");
    ("pegwit", "ring8", "profile-max", 31350, 9155, "df6b0a2d5ba39beb",
     "0874c81664019964", "f7c9e78254e5e5d4");
    ("pegwit", "ring8", "naive", 22296, 3297, "3a3ffe2cbeb18a51",
     "720834bedeb970fa", "1fc985c1ae80e050");
    ("pegwit", "ring8", "unified", 20856, 2306, "bad5f7c52269624c",
     "320a4b5156ca4cab", "0b31a71c28e67921");
    ("fir", "ring8", "gdp", 79832, 51002, "6751489a0ec3470d",
     "aff566c485d0dce9", "3a77b9d24e8d0eb9");
    ("fir", "ring8", "profile-max", 51633, 44401, "595d6df746e87530",
     "b273ff0ddf9735bd", "4fbb1f432fc86578");
    ("fir", "ring8", "naive", 74427, 51600, "9d0f4baed35077e4",
     "0719cdbcde90ef20", "df8a1085fab7c9f3");
    ("fir", "ring8", "unified", 62427, 34205, "b5ef350e642d0abd",
     "a6a5c8c4e15ee8de", "c7f1c5c2f14dfc82");
    ("fsed", "ring8", "gdp", 65465, 16083, "6cc1e3744bd67d73",
     "a3637495f6595bb4", "081bd0306691c36e");
    ("fsed", "ring8", "profile-max", 48672, 7236, "cbd5ce8ededd28af",
     "4b04ed232dc27a93", "16286edc202055bc");
    ("fsed", "ring8", "naive", 41892, 6913, "972cb588ce522b0e",
     "ebf156bdbe01717e", "61654051908b2b64");
    ("fsed", "ring8", "unified", 39013, 4035, "482aa072ffd01889",
     "ea58812581af22a9", "e10266dfa04bb5bf");
    ("sobel", "ring8", "gdp", 66871, 28562, "03c1a1148aa303c6",
     "c319f01242655ea1", "84183ccec5aec0f7");
    ("sobel", "ring8", "profile-max", 74029, 25962, "f0c6f18f052e4ff7",
     "04f1296a70a207ae", "53e180bfb73913e8");
    ("sobel", "ring8", "naive", 53643, 24193, "d3ba81e11ba62b4b",
     "13bc2c380d81cef1", "0074f0566ddf393c");
    ("sobel", "ring8", "unified", 50286, 19203, "12660e02cf6efe25",
     "880005b7fa7139e1", "a8778a49c9e218ee");
    ("viterbi", "ring8", "gdp", 298385, 97795, "124e0eed0b7c840e",
     "f9776088543a06c8", "053f3274cfda4ca9");
    ("viterbi", "ring8", "profile-max", 214654, 75266, "cc894150406e2322",
     "2c230d12a38c1a10", "96b5f1c031a4ef20");
    ("viterbi", "ring8", "naive", 218750, 74497, "58aa96e74434360d",
     "edd5e7bb6cf268d5", "d52e414112857f53");
    ("viterbi", "ring8", "unified", 195714, 61955, "2afc142ee437b1d6",
     "0f96d4d42eea054b", "54b1131026142e40");
    ("iirflt", "ring8", "gdp", 23010, 3012, "2e7a228a9e091b55",
     "0f0f40c3bf79ddfc", "979ec4030c65f060");
    ("iirflt", "ring8", "profile-max", 21513, 7512, "c929a29224ca0aa7",
     "ecb3a8f8a2d61ecb", "d5d899566a7cc908");
    ("iirflt", "ring8", "naive", 22662, 6318, "ec4d087a8669a208",
     "27fb001f353dbb71", "8c8af6a61e1b05ab");
    ("iirflt", "ring8", "unified", 17175, 4502, "30267fd4dbe5b4d3",
     "2369a50b88eb019b", "85074d0422bf6568");
    ("rawcaudio", "mesh16", "gdp", 73797, 11271, "4eef916038fa11b1",
     "41dbe7a713bec773", "ccc8fd2dd7609ea6");
    ("rawcaudio", "mesh16", "profile-max", 52768, 8706, "3550a29e660eefd6",
     "7a395409d838d790", "5cf7f29b55b33c62");
    ("rawcaudio", "mesh16", "naive", 53267, 14338, "6f4321ee9f7e0fbd",
     "ca4dae45185b409b", "39c1c37e3d5cdea7");
    ("rawcaudio", "mesh16", "unified", 50710, 13315, "0341829935360b19",
     "872fcedd37d54c14", "1b5b53c690a982ad");
    ("rawdaudio", "mesh16", "gdp", 178235, 31752, "18cb02af3b403375",
     "2a388de40d360a0e", "5e5da1adbadb9cbb");
    ("rawdaudio", "mesh16", "profile-max", 123928, 15364, "b64e92148437469f",
     "e82dc9fd7530357e", "f0dc1ce96d03e00b");
    ("rawdaudio", "mesh16", "naive", 82963, 15361, "84bc1cae0abe02af",
     "8dc250a698ad2917", "6682cbddcb55ca00");
    ("rawdaudio", "mesh16", "unified", 74775, 11267, "1238073223f50afa",
     "dcdd3c6f72ada0b6", "c999af1b2d279857");
    ("g721enc", "mesh16", "gdp", 80034, 20002, "adb4754ca7ad94a1",
     "ef02b1483eb5e8a6", "32c2d6f69dbe9701");
    ("g721enc", "mesh16", "profile-max", 68029, 14002, "847a4c64338c4b8c",
     "923979a862859052", "95752536cdd00f06");
    ("g721enc", "mesh16", "naive", 49224, 4801, "fcf6526a62a97147",
     "69d6f242870ed8b5", "191e74b3a11e4f8a");
    ("g721enc", "mesh16", "unified", 43225, 4003, "cbbf48af30ac244e",
     "62bdde7887e7990a", "2d2be80d05686681");
    ("g721dec", "mesh16", "gdp", 44064, 13204, "fa324cc3f4328a60",
     "f18fbc0dc143b76e", "12858e12be061288");
    ("g721dec", "mesh16", "profile-max", 39639, 11202, "17025e70dc675689",
     "46e6fa9783d962c0", "61f9358eee4a65fa");
    ("g721dec", "mesh16", "naive", 25624, 4001, "1adba88446b5a180",
     "644e3f88fe11db81", "e77a9336f6c97172");
    ("g721dec", "mesh16", "unified", 25624, 4002, "c7353c3133163a0c",
     "48e9862c0a5e0ccd", "f44fe513c9e93089");
    ("cjpeg", "mesh16", "gdp", 53348, 8553, "0fe046ed59f4c0a3",
     "f4bf960ce98a6952", "a898e197ed9f8170");
    ("cjpeg", "mesh16", "profile-max", 34342, 5126, "b7892863ab43ecef",
     "95bc682f3cab3e1e", "e73bb2d4314f0e14");
    ("cjpeg", "mesh16", "naive", 31502, 4097, "2b0e823ec6138f27",
     "9baefe2db7053b15", "208058a3f1219b95");
    ("cjpeg", "mesh16", "unified", 24462, 1475, "17fc605aa91d19d0",
     "4500d4282651c84d", "487ac7b01e3c3829");
    ("djpeg", "mesh16", "gdp", 75041, 12037, "bd352a6ef2707b3c",
     "f65b3ffcfb703e46", "3a5f0555b105a38c");
    ("djpeg", "mesh16", "profile-max", 39642, 6020, "1203cee87be8f364",
     "c2d3692eefc92aa0", "15324959ed811b2d");
    ("djpeg", "mesh16", "naive", 27859, 1026, "b876964237336287",
     "92efa56bda4df455", "40d0b86a1b1d9953");
    ("djpeg", "mesh16", "unified", 26579, 516, "896444144c20f051",
     "b7c7853582f9c995", "c144c26b1132f8c5");
    ("mpeg2enc", "mesh16", "gdp", 47618, 25424, "d09827d7c2607f03",
     "2b33b78bc30b2976", "74cf2a9831b88cea");
    ("mpeg2enc", "mesh16", "profile-max", 36962, 21104, "b85a5fb17fc80da6",
     "a88d97a8eef712ae", "348fad93b447bf29");
    ("mpeg2enc", "mesh16", "naive", 29192, 25344, "2007733c388c8aa2",
     "9abe1033ef62699f", "4b4bb7429725fa79");
    ("mpeg2enc", "mesh16", "unified", 25644, 16993, "397e33ad51b29266",
     "1ac875506be54521", "a765249ce99ace6e");
    ("mpeg2dec", "mesh16", "gdp", 72380, 24379, "65d24bac796a1f1e",
     "0fb96b9930487b89", "f935f9dd8a7e343d");
    ("mpeg2dec", "mesh16", "profile-max", 49035, 23760, "fcd675dc842c38b5",
     "d1f64cffe42a5a30", "e732474f89b5a380");
    ("mpeg2dec", "mesh16", "naive", 33543, 20880, "ef685737068ad8c0",
     "783052c2b2b660e5", "d5c1a73ee107ccd8");
    ("mpeg2dec", "mesh16", "unified", 28554, 13825, "249b84d8a1e3c928",
     "5bb1b9ed0c594252", "2f2183de9d1eb640");
    ("epic", "mesh16", "gdp", 80345, 35743, "11361a12c199bd58",
     "9df2652ee0c0d897", "0254dc0c32efc129");
    ("epic", "mesh16", "profile-max", 75520, 37772, "e66c8a01cd405671",
     "90b4d6c7d0a1afc3", "967b0cc806bfbc65");
    ("epic", "mesh16", "naive", 49988, 23425, "71a9377862abc8ce",
     "fab329ac940f19da", "124ceb10c688c36b");
    ("epic", "mesh16", "unified", 46152, 17667, "599f006c74e695fb",
     "c5047fdd16f74919", "223684e243e50eb9");
    ("unepic", "mesh16", "gdp", 220309, 97841, "fd8c4429ca6ed3c3",
     "e3a3b5e88e998098", "fb3074814d0d163c");
    ("unepic", "mesh16", "profile-max", 133922, 73251, "68ada5b919ed8e53",
     "e1d86d07cac2845c", "5bb02bc3608ea556");
    ("unepic", "mesh16", "naive", 103714, 60196, "5764f69f7bb5a38e",
     "8d6bc90be422b62c", "34cbf17b5eddb62a");
    ("unepic", "mesh16", "unified", 96674, 54309, "8d1b107c1029517c",
     "02ef0d5ff7f34c67", "a52036c5141e9854");
    ("gsmenc", "mesh16", "gdp", 232895, 30228, "b763864e86171616",
     "0b35b67813f65f6c", "ed82de0e621b6e4e");
    ("gsmenc", "mesh16", "profile-max", 106727, 12168, "579ee1870e5bc26f",
     "a0ade1b7364e5227", "baf081d72bb88e9f");
    ("gsmenc", "mesh16", "naive", 65891, 2628, "a49444d335434dd7",
     "6923e096fd5993be", "336f61ff7eb84c7f");
    ("gsmenc", "mesh16", "unified", 63327, 1502, "eb904f669129856d",
     "91cce1042a86ada7", "6b7a8f21a45617fd");
    ("gsmdec", "mesh16", "gdp", 84149, 11641, "1ab6e3e44858ebe7",
     "25322f6af0446de5", "3c4db7b5d06feb02");
    ("gsmdec", "mesh16", "profile-max", 65229, 10840, "9878bda3f94c694d",
     "e47be84a67a0a43c", "4a406219e7ef133d");
    ("gsmdec", "mesh16", "naive", 57130, 8830, "c7adef791d15e214",
     "144483b79c2debe0", "11459b29a4c8f2b9");
    ("gsmdec", "mesh16", "unified", 53063, 6012, "74b07126bb4088ed",
     "1183e11a20ef284b", "fdbf8ce284b40c48");
    ("pegwit", "mesh16", "gdp", 41157, 10467, "c0f50391a88dc2da",
     "31827001db4b831e", "ba7ccf9f405b6bab");
    ("pegwit", "mesh16", "profile-max", 31020, 9155, "aa163574f5148d20",
     "fd3cb1a5691658da", "fe1f5633945e2e57");
    ("pegwit", "mesh16", "naive", 22296, 3297, "121f412a51f011e0",
     "c7a79fdeaced8bed", "b91f3a389046f134");
    ("pegwit", "mesh16", "unified", 20728, 2306, "470bcec4af19deb0",
     "afe2b7bb08a23cca", "4208090ab4b6c81c");
    ("fir", "mesh16", "gdp", 95438, 54002, "360765b45c1c35ea",
     "d3a52b8f1e9e80f3", "fb4bf53b64e41e67");
    ("fir", "mesh16", "profile-max", 53428, 44401, "744475d45ea32f26",
     "1f9f06057043ef23", "bb0dc1270cd05485");
    ("fir", "mesh16", "naive", 71427, 55800, "2ec8ad0a26201189",
     "da059d6e5a066537", "857931a5271bb7c4");
    ("fir", "mesh16", "unified", 59427, 39006, "1566a8ae6f435b09",
     "6defb66658469cf9", "69c048c3989639c1");
    ("fsed", "mesh16", "gdp", 107817, 21300, "de0df9d7c657c39e",
     "81f16c856dcb5d57", "082f8fa9d1c2d08a");
    ("fsed", "mesh16", "profile-max", 71022, 12485, "56309708cc12d5db",
     "c03ee2a103168267", "56fd949d573a78f3");
    ("fsed", "mesh16", "naive", 41892, 6913, "fedcf6f53eac320d",
     "6cc940b702233966", "ee13b79725d2474d");
    ("fsed", "mesh16", "unified", 39013, 4611, "68ebffd0131fa091",
     "414923eef3c76980", "b3a8f5b7fa57230f");
    ("sobel", "mesh16", "gdp", 91881, 32399, "898bd3bff9a25dcc",
     "9bef307ae1d04461", "b3edcb3342c8d9bd");
    ("sobel", "mesh16", "profile-max", 60149, 20685, "f78c36c603c45dab",
     "af6ceb9e4f6b4012", "e106e94f21c39a36");
    ("sobel", "mesh16", "naive", 56043, 25633, "3689c7aab3e5f5f5",
     "6d6a1812df622243", "b7208a102b52ac72");
    ("sobel", "mesh16", "unified", 50766, 21123, "be84e5bc7a22b07e",
     "56fbae8f82da3456", "efca3019d734582c");
    ("viterbi", "mesh16", "gdp", 506547, 123397, "2135f68ab182ec8f",
     "06077830c7c19c52", "ed2008bede76d760");
    ("viterbi", "mesh16", "profile-max", 218509, 84739, "a032418951223936",
     "67270417ba6fc516", "c71784e3f5517bdb");
    ("viterbi", "mesh16", "naive", 218750, 74497, "749724f842157261",
     "cf8808084c1888d0", "cb973fe6d902ab97");
    ("viterbi", "mesh16", "unified", 195714, 61955, "ebd6dd99e68d8a5c",
     "c2b37cccd64f7d7a", "c6329eeb685fafc8");
    ("iirflt", "mesh16", "gdp", 32095, 5712, "3ef080074c637f73",
     "da01c1cb0dedab62", "3567631d55cb37e9");
    ("iirflt", "mesh16", "profile-max", 21813, 8412, "08ce7ed610da7d36",
     "689e8dca86bb17d6", "557d8f0f8e89dbce");
    ("iirflt", "mesh16", "naive", 20262, 6018, "96b47d73769101fd",
     "0e34b5b71116f708", "95b9123798b3b280");
    ("iirflt", "mesh16", "unified", 17175, 4202, "bb1183b8c4af67b2",
     "258d01005e44f914", "061cfcbb507ca626");
    ("rawcaudio", "hetero4", "gdp", 50205, 10758, "b8b13d097ebfb006",
     "5bb7ea77a0616f82", "57b76520086c95c2");
    ("rawcaudio", "hetero4", "profile-max", 43038, 11785, "543dbebbaeb5c316",
     "ec15eea483787f37", "e6370b1020c564e4");
    ("rawcaudio", "hetero4", "naive", 32273, 4096, "f34df7f1f2668337",
     "a2b4087dbbff4f82", "b3da7183e818b297");
    ("rawcaudio", "hetero4", "unified", 32276, 4097, "e4d83ed0d2a85465",
     "dd7de92fdb2b3883", "19546973f06314a5");
    ("rawdaudio", "hetero4", "gdp", 81949, 19462, "3d30905c7dc91364",
     "8fed034cec30ee2d", "1a927e8787b8afcc");
    ("rawdaudio", "hetero4", "profile-max", 85022, 19465, "fb9689a28d0160b2",
     "65871500194d2dbd", "e05a360ec5eb8e3a");
    ("rawdaudio", "hetero4", "naive", 74769, 13313, "0a6fd01a358c148d",
     "02291d60bfd02378", "69a179fa89763395");
    ("rawdaudio", "hetero4", "unified", 74772, 13314, "d75bbc078f62ff90",
     "a479a1469458ca37", "f6ceecea25f0e34c");
    ("g721enc", "hetero4", "gdp", 50027, 14003, "6866f2f13ee77ca4",
     "07c9e60c37cb3155", "68cda50c1c1865ae");
    ("g721enc", "hetero4", "profile-max", 54824, 10001, "2fcff7f7fc5ff489",
     "b45596106b7e3a88", "84e4125398e384e8");
    ("g721enc", "hetero4", "naive", 42024, 3201, "2ce8d8d3d501d0ac",
     "7e82313a59d83d96", "3dbdedc0b23e8916");
    ("g721enc", "hetero4", "unified", 40024, 2402, "3daabe6cbdd35512",
     "665dffa37a9ea381", "5673e3da088765dd");
    ("g721dec", "hetero4", "gdp", 24827, 6402, "6b82968b95080664",
     "65318e104fedcbdc", "2b1086818ba24d4a");
    ("g721dec", "hetero4", "profile-max", 27624, 9202, "a0a28562d53019f4",
     "a0a1cd8e18621127", "2f59d86b35451c6b");
    ("g721dec", "hetero4", "naive", 21624, 2001, "6c223517d6905e54",
     "5788fd1d8ec3c09a", "fd55722028c57f5b");
    ("g721dec", "hetero4", "unified", 21624, 2002, "9c62f93e209caee1",
     "94affea2a6efc500", "c6f8265ce6e8fcde");
    ("cjpeg", "hetero4", "gdp", 27987, 3587, "9fe8f8d52fe00c92",
     "06aec57fa23559d0", "22e7535e18e0c8c7");
    ("cjpeg", "hetero4", "profile-max", 27283, 3651, "08438983204623d7",
     "6fe0c8c49c71007c", "397d37617285a082");
    ("cjpeg", "hetero4", "naive", 31241, 4288, "c0e132c36c8353d1",
     "04547d64c6c865f8", "cbd9454f043cbe0f");
    ("cjpeg", "hetero4", "unified", 24204, 1666, "87f17338a95db650",
     "52c7c0fea0bebb29", "079acf15f5f10521");
    ("djpeg", "hetero4", "gdp", 38100, 9987, "6842ef7bb41857d6",
     "51a4dc918564d9f0", "bb54d18e4a542715");
    ("djpeg", "hetero4", "profile-max", 34516, 5636, "0105076878969060",
     "d6c2e736bbebd2c9", "c21ef7cea55b6121");
    ("djpeg", "hetero4", "naive", 27470, 1024, "09630d11bfe40700",
     "e77fce3f560e915c", "8767fdb4851e369d");
    ("djpeg", "hetero4", "unified", 26190, 514, "a83962676b242078",
     "acc3b030e6b580d7", "8757d0bf3885fbfc");
    ("mpeg2enc", "hetero4", "gdp", 29178, 24775, "3824553498f4603c",
     "f2fb969042dad6ef", "3a735a496fa03731");
    ("mpeg2enc", "hetero4", "profile-max", 26903, 21008, "5fc6718011e020cf",
     "b27030dfcd65039b", "275220de92739bb5");
    ("mpeg2enc", "hetero4", "naive", 25352, 22128, "5d85e9e6e35026fd",
     "1a579bce769e7569", "31723838c71f610f");
    ("mpeg2enc", "hetero4", "unified", 21564, 16561, "1d0d1f3f5af03c2c",
     "60c58b6e0ff55615", "f47841a063d27884");
    ("mpeg2dec", "hetero4", "gdp", 36516, 24458, "ffc62fd4cb352095",
     "c39933c71d7327ae", "0d17ebf4240090fc");
    ("mpeg2dec", "hetero4", "profile-max", 28066, 15818, "37eaae53e92c8aba",
     "0aeefcd2a58c4032", "512eb35ec48510aa");
    ("mpeg2dec", "hetero4", "naive", 28215, 16224, "dba7257e296c360d",
     "9e39e93bd44d7b9b", "a3d7efab4665b04b");
    ("mpeg2dec", "hetero4", "unified", 26298, 13969, "2f5cedf8038efa95",
     "a66d6b6fa0b1483e", "31f42d9a9e8496d2");
    ("epic", "hetero4", "gdp", 48108, 39178, "2d21c42b63a7b644",
     "4b0951b145f85eab", "0da60ac98e40573b");
    ("epic", "hetero4", "profile-max", 39491, 15360, "1c8da3e69895bd34",
     "a629e17e2632d2f3", "b2d1420c88822d8e");
    ("epic", "hetero4", "naive", 38595, 18560, "66b2a7e9eb9be583",
     "631de16bc36fd2b6", "7e1535960fe45348");
    ("epic", "hetero4", "unified", 35400, 12802, "22786c20c841f03f",
     "ed47a3fc7ffc0087", "d4a22ac04b0fc952");
    ("unepic", "hetero4", "gdp", 113485, 75286, "3c8ae91630ef9f5b",
     "579dd7f8b5ef8300", "ca7e2d7e77def002");
    ("unepic", "hetero4", "profile-max", 90616, 33024, "4fbbd400c58fec39",
     "fab10347899f0354", "a448f9d623a5b6bf");
    ("unepic", "hetero4", "naive", 86008, 35328, "819915110cd4483d",
     "160dfe8452eb5278", "b82911e4372a9308");
    ("unepic", "hetero4", "unified", 84217, 33539, "a8c2c5f7c37cfb53",
     "28ca75acd95f2896", "e2e0b3cc05fe16b3");
    ("gsmenc", "hetero4", "gdp", 132479, 24492, "bbcd3680ccaadfdd",
     "bacce91c192aa4a2", "448cc5507db33f44");
    ("gsmenc", "hetero4", "profile-max", 72563, 5568, "7adcbfd671d6f6aa",
     "4779377b0e8f13d5", "dcb1253c81d48ba3");
    ("gsmenc", "hetero4", "naive", 65411, 3060, "8b66e06701bb0456",
     "8d94ef3d7f78d64c", "8d7d90e9d13d4da1");
    ("gsmenc", "hetero4", "unified", 62763, 1934, "5860297278a3b8f9",
     "25ca82cf38516c9e", "76c8886e7b22c209");
    ("gsmdec", "hetero4", "gdp", 57834, 8401, "33dae8124ba737a7",
     "46301c5eb62d1b25", "f0d8cdf501219558");
    ("gsmdec", "hetero4", "profile-max", 57929, 2840, "49a8f0261e7e565c",
     "f4b37e929ff739c7", "69caee40331a2dff");
    ("gsmdec", "hetero4", "naive", 51030, 0, "ccd63481421b63a2",
     "e01e26b2213e4a8c", "f6110d5ef8ce42b8");
    ("gsmdec", "hetero4", "unified", 51033, 2, "11a56f113edd4c06",
     "9d09932bdc68ee5c", "956d5d3b122a6470");
    ("pegwit", "hetero4", "gdp", 27293, 6978, "babde224e1183186",
     "46b3f42d92c138e5", "ffdc86f94b2c70e6");
    ("pegwit", "hetero4", "profile-max", 26781, 6978, "08f513c329296f96",
     "f10e092bf7c0ebe8", "1027d2c446a35776");
    ("pegwit", "hetero4", "naive", 18163, 0, "59678cc77d8c633b",
     "c833418fff1a23f9", "c573f61aafc114fb");
    ("pegwit", "hetero4", "unified", 18295, 257, "18ba6c820dc10bd1",
     "cdcc1ebd23676ccc", "9fd23c43d1740bc3");
    ("fir", "hetero4", "gdp", 52227, 47401, "9eb3cadaf8371b5a",
     "3c819efca92c779b", "5eb8c0cb9bb23f80");
    ("fir", "hetero4", "profile-max", 46827, 43201, "72d5eabbe1679726",
     "9472aac465d02dd3", "545eec9b94e3c1af");
    ("fir", "hetero4", "naive", 51627, 33001, "fdbfae48759f4780",
     "4d7215fef339d976", "2c6f706d11228474");
    ("fir", "hetero4", "unified", 46827, 31805, "78f0d6e6d89cc89f",
     "52e201e4c92056f0", "e3b941a789569d63");
    ("fsed", "hetero4", "gdp", 45738, 12846, "a27cd96ffebbcb6b",
     "470df0231e9c3e8e", "b8a82aca5105413c");
    ("fsed", "hetero4", "profile-max", 46159, 10081, "993cfd6311b9a77a",
     "660221136b391bf1", "db61c202d9a03daf");
    ("fsed", "hetero4", "naive", 33193, 4608, "c0bd437a7fa79793",
     "3aeaa30461fc1f4a", "e19d8b1b184b82ec");
    ("fsed", "hetero4", "unified", 33198, 3458, "ca166d52414067b9",
     "388e2dd9aa72e6e1", "ebbec93314aa2e21");
    ("sobel", "hetero4", "gdp", 49354, 29997, "3f42f1baaccecac2",
     "86181bda1869871a", "2c39c97bea845394");
    ("sobel", "hetero4", "profile-max", 51146, 30252, "0b50a1924b0edc71",
     "2839c800eb4b1e06", "424ef4f551f38d07");
    ("sobel", "hetero4", "naive", 41637, 16032, "c997ce22ddd5b1ab",
     "bbb0d689c465b4ae", "fe6a357d78074cc9");
    ("sobel", "hetero4", "unified", 38761, 12962, "851935f930e0bca1",
     "0f66e9ce11c5b9c2", "e9a1a71f381f4522");
    ("viterbi", "hetero4", "gdp", 274823, 137731, "5f6a8e9133ae9b72",
     "487547d3e2eb905c", "5739b0a1b17ec0eb");
    ("viterbi", "hetero4", "profile-max", 222851, 82946, "e0d9ceb5ba235c55",
     "d6387095fa365d8c", "1278280109f92f30");
    ("viterbi", "hetero4", "naive", 218755, 61953, "06d76d6f6b295dd7",
     "4fa6e43df62feb1e", "c4d20ac6d7cd3535");
    ("viterbi", "hetero4", "unified", 177798, 41474, "957c8eaf2c007720",
     "90f454a1af63a382", "dab955077fb7373d");
    ("iirflt", "hetero4", "gdp", 19906, 4811, "3615480140f363cd",
     "d0d38ce948f74104", "664037b8f06640b0");
    ("iirflt", "hetero4", "profile-max", 19906, 2711, "a2ff48498dacb58d",
     "ec94c4715f3e56eb", "dfeb198aee8e589a");
    ("iirflt", "hetero4", "naive", 16960, 918, "505454a065cabda1",
     "20fb3d8500b2d309", "b6cedc2285799333");
    ("iirflt", "hetero4", "unified", 16873, 902, "d402260065822099",
     "bd0990f15be7327f", "81708883cdd18daa");
  ]

(* One context per (preset, benchmark) feeds the pinned tests: GDP's
   partition facts, and a plain [Pipeline.run] of every method with
   RHOP's work counters ([rhop.candidates], [rhop.relevels],
   [rhop.pruned]) in [work]. *)
type preset_facts = {
  gdp : (string * string * int * string) list;
  compiles :
    (string * string * string * int * int * string * string * string) list;
  work : (string * string * (int * int * int)) list;
}

let digest16 s = String.sub (Digest.to_hex (Digest.string s)) 0 16

let digest_clusters (c : Vliw_sched.Move_insert.clustered) =
  let b = Buffer.create 4096 in
  Prog.iter_ops
    (fun op ->
      let id = Op.id op in
      Buffer.add_string b
        (Printf.sprintf "%d:%d," id
           (Vliw_sched.Assignment.cluster_of c.Vliw_sched.Move_insert.cassign
              ~op_id:id)))
    c.Vliw_sched.Move_insert.cprog;
  digest16 (Buffer.contents b)

(* Every block's schedule: its length, then per entry in issue order
   the op id, the issue cycle and the cluster (-1 for a routed move). *)
let digest_schedule (s : Vliw_sched.Schedule.t) =
  let module LS = Vliw_sched.List_sched in
  let b = Buffer.create 4096 in
  Vliw_sched.Schedule.iter
    (fun f blk sched ->
      Buffer.add_string b
        (Printf.sprintf "%s/%s:%d;" (Func.name f)
           (Label.to_string (Block.label blk))
           (LS.length sched));
      Array.iter
        (fun (e : LS.entry) ->
          Buffer.add_string b
            (Printf.sprintf "%d@%d:%d," (Op.id e.LS.op) e.LS.cycle
               (Option.value ~default:(-1) e.LS.cluster)))
        (LS.entries sched))
    s;
  digest16 (Buffer.contents b)

(* A compile's attribution totals: cycles per category, moves per
   route and per object, unattributed moves, and every object's local
   and remote accesses. *)
let digest_attribution (t : Vliw_sched.Attrib.totals) =
  let module A = Vliw_sched.Attrib in
  let b = Buffer.create 1024 in
  let add fmt = Printf.bprintf b fmt in
  add "%d;" t.A.t_cycles;
  Array.iter (add "%d,") t.A.t_categories;
  add ";%d;" t.A.t_moves;
  List.iter (fun ((s, d), n) -> add "%d>%d:%d," s d n) t.A.t_link_moves;
  add ";";
  List.iter
    (fun (o, n) -> add "%s:%d," (Data.obj_to_string o) n)
    t.A.t_obj_moves;
  add ";%d;" t.A.t_unattributed_moves;
  List.iter
    (fun (o, (a : A.access)) ->
      add "%s:%d/%d," (Data.obj_to_string o) a.A.acc_local a.A.acc_remote)
    t.A.t_obj_access;
  digest16 (Buffer.contents b)

(* The facts of one (preset, benchmark): the GDP edge cut and partition
   digest, then per method cycles, moves, cluster digest, the three
   RHOP work counters, the schedule digest and the attribution
   digest. *)
let facts_worker (preset, bench) =
  let spec = Result.get_ok (Machine_spec.preset preset) in
  let machine = Machine_spec.resolve spec in
  let ctx =
    Gdp_core.Pipeline.context ~machine
      (Gdp_core.Pipeline.prepare_default (Benchsuite.Suite.find bench))
  in
  let r =
    Partition.Gdp.partition_objects ~machine ~prog:ctx.Methods.prog
      ~merge:ctx.Methods.merge ~dfg:ctx.Methods.dfg ~profile:ctx.Methods.profile
      ()
  in
  let parts =
    Array.to_list r.Partition.Gdp.part_of_unit
    |> List.map string_of_int |> String.concat ","
  in
  let compile m =
    let s = { (Gdp_core.Pipeline.Settings.default m) with machine = spec } in
    let result, snap =
      Telemetry.capture (fun () -> Gdp_core.Pipeline.run ~ctx s)
    in
    let count name =
      Option.value ~default:0 (Telemetry.Snapshot.find_counter snap name)
    in
    match result with
    | Ok (Gdp_core.Pipeline.Evaluated e) ->
        let report = e.Gdp_core.Pipeline.report in
        let clustered = e.Gdp_core.Pipeline.outcome.Methods.clustered in
        ( ( bench,
            preset,
            Methods.to_string m,
            report.Vliw_sched.Perf.total_cycles,
            report.Vliw_sched.Perf.dynamic_moves,
            digest_clusters clustered,
            digest_schedule
              (Vliw_sched.Move_insert.schedule ~machine:ctx.Methods.machine
                 ~objects_of:(Methods.objects_of ctx) clustered),
            digest_attribution
              (Vliw_sched.Attrib.of_clustered ~machine:ctx.Methods.machine
                 clustered ~profile:ctx.Methods.profile
                 ~objects_of:(Methods.objects_of ctx) ()) ),
          ( preset,
            Methods.to_string m,
            ( count "rhop.candidates",
              count "rhop.relevels",
              count "rhop.pruned" ) ) )
    | Ok (Gdp_core.Pipeline.Degraded _) -> assert false
    | Error m -> failwith m
  in
  let compiles, work = List.split (List.map compile Methods.all) in
  ((bench, preset, r.Partition.Gdp.edgecut, digest16 parts), compiles, work)

(* The 90 (preset, benchmark) units run on two worker processes, each
   benchmark's units on one worker so its front end is prepared once:
   the 360 compiles would otherwise dominate the suite's time. *)
let preset_facts =
  lazy
    (let units =
       List.concat_map
         (fun preset ->
           List.map
             (fun (b : Benchsuite.Bench_intf.t) -> (preset, b.name))
             Benchsuite.Suite.all)
         Machine_spec.preset_names
     in
     let results =
       Exec.map ~jobs:2 ~worker:facts_worker
         (List.map
            (fun ((_, bench) as unit) -> Exec.job ~batch:bench unit)
            units)
     in
     let per_unit =
       List.mapi
         (fun i (preset, bench) ->
           match results.(i) with
           | Ok facts -> facts
           | Error m -> Alcotest.failf "%s on %s: %s" bench preset m)
         units
     in
     {
       gdp = List.map (fun (g, _, _) -> g) per_unit;
       compiles = List.concat_map (fun (_, c, _) -> c) per_unit;
       work = List.concat_map (fun (_, _, w) -> w) per_unit;
     })

(* The partitioner draws from the stdlib [Random], whose stream differs
   between compiler releases (4.14 and 5.x use different generators).
   Under another stream the partitions are not the recorded ones, and
   the test reports itself skipped. *)
let pinned_random_stream = "b806d97fc054d6cd"

let random_stream () =
  let st = Random.State.make [| 42; 0 |] in
  List.init 8 (fun _ -> string_of_int (Random.State.bits st))
  |> String.concat "," |> Digest.string |> Digest.to_hex
  |> fun h -> String.sub h 0 16

let test_pinned_gdp () =
  if random_stream () <> pinned_random_stream then Alcotest.skip ();
  let row = Alcotest.(pair (pair string string) (pair int string)) in
  let rows = List.map (fun (b, p, c, d) -> ((b, p), (c, d))) in
  Alcotest.(check (list row))
    "edge cut and part_of_unit digest per (benchmark, preset)"
    (rows pinned_gdp) (rows (Lazy.force preset_facts).gdp)

(* GDP's rows hold only under the recorded random stream, like
   [test_pinned_gdp]; the other methods draw no random numbers. *)
let test_pinned_compiles () =
  let keep =
    if random_stream () = pinned_random_stream then fun _ -> true
    else fun (_, _, m, _, _, _, _, _) -> m <> Methods.to_string Methods.Gdp
  in
  let row =
    Alcotest.(
      pair
        (triple string string string)
        (pair (triple int int string) (pair string string)))
  in
  let rows l =
    List.filter_map
      (fun ((b, p, m, c, d, h, sd, ad) as r) ->
        if keep r then Some ((b, p, m), ((c, d, h), (sd, ad))) else None)
      l
  in
  Alcotest.(check (list row))
    "cycles, dynamic moves, op-cluster, schedule and attribution digests per \
     (benchmark, preset, method)"
    (rows pinned_compiles)
    (rows (Lazy.force preset_facts).compiles)

(* RHOP's work per (preset, method), summed over the suite: candidate
   clusters priced, pinned exactly, and dependence levels recomputed,
   pinned as a ceiling.  A change that prunes more lowers the ceiling
   and says so.  Summed over the four methods, pricing every candidate
   in full took 3 420 210 relevels on paper and 47 549 997 on mesh16,
   against 825 502 and 4 954 605 here. *)
let pinned_rhop_work =
  [
    ("paper", "gdp", 27007, 126482);
    ("paper", "profile-max", 59870, 340626);
    ("paper", "naive", 32396, 179197);
    ("paper", "unified", 32396, 179197);
    ("kway4", "gdp", 88698, 291694);
    ("kway4", "profile-max", 174726, 516387);
    ("kway4", "naive", 90621, 239745);
    ("kway4", "unified", 90621, 239745);
    ("ring8", "gdp", 240842, 915645);
    ("ring8", "profile-max", 475160, 1184305);
    ("ring8", "naive", 260421, 468427);
    ("ring8", "unified", 260421, 468427);
    ("mesh16", "gdp", 508065, 2129351);
    ("mesh16", "profile-max", 1039110, 1776050);
    ("mesh16", "naive", 554340, 524602);
    ("mesh16", "unified", 554340, 524602);
    ("hetero4", "gdp", 93582, 331579);
    ("hetero4", "profile-max", 189924, 565508);
    ("hetero4", "naive", 105078, 300796);
    ("hetero4", "unified", 105078, 300796);
  ]

(* GDP's rows count only under the recorded random stream, as in
   [test_pinned_compiles]. *)
let test_pinned_rhop_work () =
  let gdp_counts = random_stream () = pinned_random_stream in
  let work = (Lazy.force preset_facts).work in
  List.iter
    (fun (preset, m, candidates, relevels) ->
      if gdp_counts || m <> Methods.to_string Methods.Gdp then begin
        let sum f =
          List.fold_left
            (fun acc (p, m', w) ->
              if p = preset && m' = m then acc + f w else acc)
            0 work
        in
        let c = sum (fun (c, _, _) -> c)
        and r = sum (fun (_, r, _) -> r)
        and pruned = sum (fun (_, _, p) -> p) in
        Alcotest.(check int) (preset ^ " " ^ m ^ " candidates") candidates c;
        if r > relevels then
          Alcotest.failf "%s %s: %d relevels, above the pinned %d" preset m r
            relevels;
        if pruned > c then
          Alcotest.failf "%s %s: %d of %d candidates pruned" preset m pruned c
      end)
    pinned_rhop_work;
  Alcotest.(check int)
    "a row per (preset, method)"
    (List.length Machine_spec.preset_names * List.length Methods.all)
    (List.length pinned_rhop_work)

(* The ratchet: per preset, the suite average of unified cycles over
   method cycles (higher is better) for GDP, Profile Max and Naive,
   recorded from the pinned compiles above.  A change may lower none of
   them by more than [ratchet_slack].  A change that raises one raises
   its pin here and records the new value in CHANGES.md, so the pins
   only climb. *)
let ratchet_slack = 0.005

let pinned_suite_ratios =
  [
    ("paper", "gdp", 0.9616);
    ("paper", "profile-max", 0.9234);
    ("paper", "naive", 0.9384);
    ("kway4", "gdp", 0.8322);
    ("kway4", "profile-max", 0.8584);
    ("kway4", "naive", 0.9257);
    ("hetero4", "gdp", 0.7580);
    ("hetero4", "profile-max", 0.8280);
    ("hetero4", "naive", 0.9429);
    ("ring8", "gdp", 0.6403);
    ("ring8", "profile-max", 0.7686);
    ("ring8", "naive", 0.8952);
    ("mesh16", "gdp", 0.4918);
    ("mesh16", "profile-max", 0.7279);
    ("mesh16", "naive", 0.9043);
  ]

(* GDP's rows count only under the recorded random stream, as in
   [test_pinned_compiles]. *)
let test_quality_ratchet () =
  let gdp_counts = random_stream () = pinned_random_stream in
  let compiles = (Lazy.force preset_facts).compiles in
  let cycles bench preset m =
    List.find_map
      (fun (b, p, m', c, _, _, _, _) ->
        if b = bench && p = preset && m' = m then Some (float_of_int c)
        else None)
      compiles
    |> Option.get
  in
  List.iter
    (fun (preset, m, pinned) ->
      if gdp_counts || m <> Methods.to_string Methods.Gdp then begin
        let ratios =
          List.map
            (fun (b : Benchsuite.Bench_intf.t) ->
              cycles b.name preset "unified" /. cycles b.name preset m)
            Benchsuite.Suite.all
        in
        let avg =
          List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios)
        in
        if avg < pinned -. ratchet_slack then
          Alcotest.failf
            "%s %s: suite average unified/method %.4f, below the pinned \
             %.4f by more than %g"
            preset m avg pinned ratchet_slack
      end)
    pinned_suite_ratios;
  Alcotest.(check int)
    "a row per (preset, partitioned-memory method)"
    (List.length Machine_spec.preset_names * 3)
    (List.length pinned_suite_ratios)

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
    Alcotest.test_case "gdp: partitions pinned on every preset" `Quick
      test_pinned_gdp;
    Alcotest.test_case "methods: compiles pinned on every preset" `Quick
      test_pinned_compiles;
    Alcotest.test_case "rhop: work pinned on every preset" `Quick
      test_pinned_rhop_work;
    Alcotest.test_case "methods: quality ratchet on every preset" `Quick
      test_quality_ratchet;
  ]
