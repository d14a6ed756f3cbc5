(** One compile, MiniC source to verified artifact, as a sequence of
    calls to each layer's public functions in the order
    [Gdp_core.Pipeline] and [Partition.Methods] make them.  Every call
    sits in a {!Trace} span named after the per-layer metric it feeds.

    [Partition.Methods] keeps two helpers private ([lock_table] and
    [rehome_memory]); they are restated here.  The equivalence check
    ([equiv.ml]) proves the composition yields the object homes, cycles
    and moves that [Gdp_core.Pipeline.run] yields. *)

open Vliw_ir
module A = Vliw_sched.Assignment
module Methods = Partition.Methods

let span = Trace.with_span

type artifact = {
  homes : (Data.obj * int) list;  (** sorted by object *)
  cycles : int;
  moves : int;
}

(** Deterministic work counts of one compile. *)
type counts = {
  ops_out : int;  (** IR ops after the optimization passes *)
  dfg_edges : int;
  edgecut : int;  (** GDP's graph-partition cut; 0 for other methods *)
  rhop_calls : int;  (** [Rhop.partition] invocations *)
  static_moves : int;
}

type outcome = { artifact : artifact; counts : counts }

let sort_homes homes =
  List.sort (fun (a, _) (b, _) -> Data.compare_obj a b) homes

(* Mandatory cluster of each op under [homes]: memory-touching ops go to
   the home of their merge group's objects. *)
let lock_table merge (homes : (Data.obj * int) list) : int -> int option =
  let home_of_group = Hashtbl.create 32 in
  List.iter
    (fun (obj, c) ->
      match Partition.Merge.group_of_obj merge obj with
      | None -> ()
      | Some g -> (
          match Hashtbl.find_opt home_of_group g with
          | Some c' when c' <> c ->
              invalid_arg "lock_table: objects of one merge group homed apart"
          | _ -> Hashtbl.replace home_of_group g c))
    homes;
  fun op_id ->
    match Partition.Merge.group_of_op merge op_id with
    | None -> None
    | Some g -> Hashtbl.find_opt home_of_group g

(* Naive's post-pass: move memory ops onto their group's home, then put
   every register web whose definitions ended up split on one cluster. *)
let rehome_memory prog (assign : A.t) (lock_of : int -> int option) =
  Prog.iter_ops
    (fun op ->
      match lock_of (Op.id op) with
      | Some c -> A.set_cluster assign ~op_id:(Op.id op) c
      | None -> ())
    prog;
  List.iter
    (fun f ->
      let defs_of : (Reg.t, (int * bool) list) Hashtbl.t = Hashtbl.create 64 in
      Func.iter_ops
        (fun op ->
          let locked = lock_of (Op.id op) <> None in
          List.iter
            (fun r ->
              Hashtbl.replace defs_of r
                ((Op.id op, locked)
                :: Option.value ~default:[] (Hashtbl.find_opt defs_of r)))
            (Op.defs op))
        f;
      Hashtbl.iter
        (fun _r defs ->
          let clusters =
            List.sort_uniq Int.compare
              (List.map (fun (id, _) -> A.cluster_of assign ~op_id:id) defs)
          in
          match clusters with
          | [] | [ _ ] -> ()
          | _ ->
              let target =
                match List.find_opt snd defs with
                | Some (id, _) -> A.cluster_of assign ~op_id:id
                | None -> A.cluster_of assign ~op_id:(fst (List.hd defs))
              in
              List.iter
                (fun (id, locked) ->
                  if locked && A.cluster_of assign ~op_id:id <> target then
                    invalid_arg "rehome_memory: conflicting locked definitions"
                  else A.set_cluster assign ~op_id:id target)
                defs)
        defs_of)
    (Prog.funcs prog)

let outputs_match what expected got =
  if
    not
      (List.length got = List.length expected
      && List.for_all2 Vliw_interp.Interp.equal_value got expected)
  then failwith (what ^ " outputs differ from the reference run")

let run ~machine ?pool (meth : Methods.t) (bench : Benchsuite.Bench_intf.t) =
  let input = bench.Benchsuite.Bench_intf.input in
  let prog =
    span "minic.compile" (fun () ->
        Minic.compile ~unroll:true bench.Benchsuite.Bench_intf.source)
  in
  let prog =
    span "vliw_opt" (fun () ->
        let prog = Vliw_opt.Promote.run prog in
        let prog = Vliw_opt.Dce.run (Vliw_opt.Simplify.run prog) in
        Vliw_opt.Dce.run (Vliw_opt.Ifconvert.run prog))
  in
  let reference =
    span "vliw_interp.profile" (fun () -> Vliw_interp.Interp.run prog ~input)
  in
  let profile = reference.Vliw_interp.Interp.profile in
  let pt =
    span "vliw_analysis.points_to" (fun () ->
        Vliw_analysis.Points_to.compute prog)
  in
  let merge =
    span "partition.merge" (fun () ->
        let objtab = Vliw_interp.Profile.object_table prog profile in
        Partition.Merge.compute ~merge_low_slack:false ~machine prog objtab pt)
  in
  let dfg =
    span "vliw_analysis.prog_dfg" (fun () -> Vliw_analysis.Prog_dfg.compute prog)
  in
  let objects_of = Vliw_analysis.Points_to.objects_of pt in
  let num_clusters = Vliw_machine.num_clusters machine in
  let rhop_calls = ref 0 in
  let rhop ~lock_of assign =
    incr rhop_calls;
    span "partition.rhop" (fun () ->
        Partition.Rhop.partition ?pool ~machine ~objects_of ~lock_of prog assign)
  in
  let unified () =
    let assign = A.create ~num_clusters in
    rhop ~lock_of:(fun _ -> None) assign;
    assign
  in
  let with_homes homes =
    let assign = A.create ~num_clusters in
    List.iter (fun (obj, c) -> A.set_home assign obj c) homes;
    rhop ~lock_of:(lock_table merge homes) assign;
    assign
  in
  let edgecut, homes, assign =
    match meth with
    | Methods.Gdp ->
        let r =
          span "partition.gdp" (fun () ->
              Partition.Gdp.partition_objects ?pool ~machine ~prog ~merge ~dfg
                ~profile ())
        in
        (r.Partition.Gdp.edgecut, r.obj_home, with_homes r.obj_home)
    | Profile_max ->
        let assign1 = unified () in
        let homes =
          span "partition.baselines" (fun () ->
              Partition.Baselines.profile_max_homes ~merge ~profile
                ~assign:assign1 ~num_clusters ())
        in
        (0, homes, with_homes homes)
    | Naive ->
        let assign = unified () in
        let homes =
          span "partition.baselines" (fun () ->
              let homes =
                Partition.Baselines.naive_homes ~merge ~profile ~assign
                  ~num_clusters ()
              in
              rehome_memory prog assign (lock_table merge homes);
              List.iter (fun (obj, c) -> A.set_home assign obj c) homes;
              homes)
        in
        (0, homes, assign)
    | Unified -> (0, [], unified ())
  in
  let clustered =
    span "vliw_sched.move_insert" (fun () ->
        Vliw_sched.Move_insert.apply prog assign)
  in
  span "vliw_sched.validate" (fun () ->
      A.validate clustered.Vliw_sched.Move_insert.cassign
        clustered.Vliw_sched.Move_insert.cprog ~objects_of);
  let report =
    span "vliw_sched.perf" (fun () ->
        Vliw_sched.Perf.evaluate ~machine clustered ~profile ~objects_of ())
  in
  let expected = reference.Vliw_interp.Interp.outputs in
  let interp =
    span "vliw_interp.verify" (fun () ->
        Vliw_interp.Interp.run clustered.Vliw_sched.Move_insert.cprog ~input)
  in
  outputs_match "clustered interpretation" expected
    interp.Vliw_interp.Interp.outputs;
  let sim =
    span "vliw_sched.sim" (fun () ->
        Vliw_sched.Vliw_sim.run clustered ~machine ~objects_of ~input ())
  in
  outputs_match "cycle simulation" expected sim.Vliw_sched.Vliw_sim.outputs;
  let cycles = report.Vliw_sched.Perf.total_cycles in
  let moves = report.Vliw_sched.Perf.dynamic_moves in
  if sim.Vliw_sched.Vliw_sim.cycles <> cycles then
    failwith
      (Printf.sprintf "simulated cycles (%d) disagree with the static model (%d)"
         sim.Vliw_sched.Vliw_sim.cycles cycles);
  if sim.Vliw_sched.Vliw_sim.dynamic_moves <> moves then
    failwith
      (Printf.sprintf "simulated moves (%d) disagree with the static model (%d)"
         sim.Vliw_sched.Vliw_sim.dynamic_moves moves);
  {
    artifact = { homes = sort_homes homes; cycles; moves };
    counts =
      {
        ops_out = Prog.op_count prog;
        dfg_edges = Vliw_analysis.Prog_dfg.num_edges dfg;
        edgecut;
        rhop_calls = !rhop_calls;
        static_moves = report.Vliw_sched.Perf.static_moves;
      };
  }

(** [run], with any stage or verification failure as [Error]. *)
let compile ~machine ?pool meth bench =
  match run ~machine ?pool meth bench with
  | o -> Ok o
  | exception e -> Error (Printexc.to_string e)
