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

let gdp_facts () =
  List.concat_map
    (fun preset ->
      let machine = Helpers.preset_machine preset in
      List.map
        (fun (bench : Benchsuite.Bench_intf.t) ->
          let ctx =
            Gdp_core.Pipeline.context ~machine
              (Gdp_core.Pipeline.prepare_default bench)
          in
          let r =
            Partition.Gdp.partition_objects ~machine ~prog:ctx.Methods.prog
              ~merge:ctx.Methods.merge ~dfg:ctx.Methods.dfg
              ~profile:ctx.Methods.profile ()
          in
          let parts =
            Array.to_list r.Partition.Gdp.part_of_unit
            |> List.map string_of_int |> String.concat ","
          in
          ( bench.name,
            preset,
            r.Partition.Gdp.edgecut,
            String.sub (Digest.to_hex (Digest.string parts)) 0 16 ))
        Benchsuite.Suite.all)
    Machine_spec.preset_names

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
    (rows pinned_gdp) (rows (gdp_facts ()))

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
  ]
