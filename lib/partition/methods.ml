(** End-to-end partitioning methods (paper Table 1).

    | method      | object partitioner      | computation partitioner |
    |-------------|-------------------------|-------------------------|
    | GDP         | global data partitioning| RHOP (objects locked)   |
    | Profile Max | greedy on RHOP profile  | RHOP twice              |
    | Naive       | post-pass max-frequency | RHOP once, mem re-homed |
    | Unified     | none (shared memory)    | RHOP                    |

    Each method produces a [Move_insert.clustered] program ready for the
    scheduler and the cycle model. *)

open Vliw_ir
module A = Vliw_sched.Assignment
module An = Vliw_analysis

type t = Gdp | Profile_max | Naive | Unified

let all = [ Gdp; Profile_max; Naive; Unified ]

let to_string = function
  | Gdp -> "gdp"
  | Profile_max -> "profile-max"
  | Naive -> "naive"
  | Unified -> "unified"

let of_string = function
  | "gdp" -> Ok Gdp
  | "profile-max" -> Ok Profile_max
  | "naive" -> Ok Naive
  | "unified" -> Ok Unified
  | s ->
      Error
        (Fmt.str "unknown partitioning method %S (expected one of %s)" s
           (String.concat ", " (List.map to_string all)))

(** Graceful-degradation order: a method that fails verification falls
    back to the next entry, ending at Unified (shared memory, no data
    partition to get wrong).  The order follows the paper's method
    hierarchy: GDP -> Profile Max -> Naive -> Unified. *)
let fallback_chain m =
  let rec from = function
    | [] -> [ m ]
    | x :: rest -> if x = m then x :: rest else from rest
  in
  from all

(** Everything the methods need, computed once per (program, workload). *)
type context = {
  prog : Prog.t;
  machine : Vliw_machine.t;
  profile : Vliw_interp.Profile.t;
  pt : An.Points_to.t;
  objtab : Data.table;
  merge : Merge.t;
  dfg : An.Prog_dfg.t;
  objects_of : int -> Data.Obj_set.t;
}

let make_context ?(merge_low_slack = false) ~(machine : Vliw_machine.t)
    ~(prog : Prog.t) ~(profile : Vliw_interp.Profile.t) () : context =
  let pt =
    Telemetry.with_span "points-to" (fun () -> An.Points_to.compute prog)
  in
  let objtab = Vliw_interp.Profile.object_table prog profile in
  let merge =
    Telemetry.with_span "access-merge" (fun () ->
        Merge.compute ~merge_low_slack ~machine prog objtab pt)
  in
  if Telemetry.is_enabled () then begin
    let groups = Merge.num_groups merge in
    let members =
      Array.fold_left
        (fun acc (g : Merge.group) ->
          acc + List.length g.Merge.objects + List.length g.Merge.mem_ops)
        0 merge.Merge.groups
    in
    Telemetry.incr "merge.groups" ~by:groups;
    (* each union that collapsed two elements into one group is a merge *)
    Telemetry.incr "merge.merges_applied" ~by:(members - groups)
  end;
  let dfg =
    Telemetry.with_span "prog-dfg" (fun () -> An.Prog_dfg.compute prog)
  in
  if Telemetry.is_enabled () then begin
    let edges = ref 0 in
    An.Prog_dfg.iter_edges (fun _ _ _ -> incr edges) dfg;
    Telemetry.incr "dfg.edges" ~by:!edges
  end;
  let objects_of = An.Points_to.objects_of pt in
  { prog; machine; profile; pt; objtab; merge; dfg; objects_of }

let objects_of ctx = ctx.objects_of

type outcome = {
  method_name : string;
  clustered : Vliw_sched.Move_insert.clustered;
  obj_home : (Data.obj * int) list;  (** empty for unified memory *)
  rhop_runs : int;  (** detailed-partitioner invocations (Section 4.5) *)
  cut_edges : int option;  (** GDP's graph-partition cut *)
}

(* ------------------------------------------------------------------ *)
(* Shared plumbing                                                     *)

(** Mandatory cluster of each op under [homes]: memory-touching ops go to
    the home of their merge group's objects. *)
let lock_table ctx (homes : (Data.obj * int) list) : int -> int option =
  let home_of_group = Hashtbl.create 32 in
  List.iter
    (fun (obj, c) ->
      match Merge.group_of_obj ctx.merge obj with
      | None -> ()
      | Some g -> (
          match Hashtbl.find_opt home_of_group g with
          | Some c' when c' <> c ->
              invalid_arg
                "Methods.lock_table: objects of one merge group homed apart"
          | _ -> Hashtbl.replace home_of_group g c))
    homes;
  fun op_id ->
    match Merge.group_of_op ctx.merge op_id with
    | None -> None
    | Some g -> Hashtbl.find_opt home_of_group g

let set_homes assign homes =
  List.iter (fun (obj, c) -> A.set_home assign obj c) homes

(** Run the detailed computation partitioner with [homes] locked, insert
    moves, and package the result.  This is the shared second pass of
    GDP and Profile Max, and the whole story for the exhaustive-search
    experiment (Figure 9). *)
let clustered_with_homes ?pool ctx ~method_name ~rhop_runs homes : outcome =
  let assign = A.create ~num_clusters:(Vliw_machine.num_clusters ctx.machine) in
  set_homes assign homes;
  Rhop.partition ?pool ~machine:ctx.machine ~objects_of:(objects_of ctx)
    ~lock_of:(lock_table ctx homes) ctx.prog assign;
  let clustered = Vliw_sched.Move_insert.apply ctx.prog assign in
  { method_name; clustered; obj_home = homes; rhop_runs; cut_edges = None }

(** Unified-memory computation partition (no locks, no homes). *)
let unified_assignment ?pool ctx : A.t =
  let assign = A.create ~num_clusters:(Vliw_machine.num_clusters ctx.machine) in
  Rhop.partition ?pool ~machine:ctx.machine
    ~objects_of:(objects_of ctx)
    ~lock_of:(fun _ -> None)
    ctx.prog assign;
  assign

(* ------------------------------------------------------------------ *)
(* Methods                                                             *)

let run_gdp ?gdp_config ?pool ctx : outcome =
  let r =
    Gdp.partition_objects ?config:gdp_config ?pool ~machine:ctx.machine
      ~prog:ctx.prog ~merge:ctx.merge ~dfg:ctx.dfg ~profile:ctx.profile ()
  in
  let o =
    clustered_with_homes ?pool ctx ~method_name:(to_string Gdp) ~rhop_runs:1
      r.Gdp.obj_home
  in
  { o with cut_edges = Some r.Gdp.edgecut }

let run_profile_max ?pool ctx : outcome =
  let assign1 = unified_assignment ?pool ctx in
  let homes =
    Baselines.profile_max_homes ~merge:ctx.merge ~profile:ctx.profile
      ~assign:assign1
      ~num_clusters:(Vliw_machine.num_clusters ctx.machine) ()
  in
  clustered_with_homes ?pool ctx ~method_name:(to_string Profile_max)
    ~rhop_runs:2 homes

(** Re-home memory operations of [assign] onto their group's cluster
    without repartitioning, repairing any register web whose definitions
    ended up split (cannot happen with the MiniC lowering, but the IR
    allows it). *)
let rehome_memory ctx (assign : A.t) (lock_of : int -> int option) : unit =
  Prog.iter_ops
    (fun op ->
      match lock_of (Op.id op) with
      | Some c -> A.set_cluster assign ~op_id:(Op.id op) c
      | None -> ())
    ctx.prog;
  (* INV1 repair: all defs of a register on one cluster *)
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
          | _ -> (
              let target =
                match List.find_opt snd defs with
                | Some (id, _) -> A.cluster_of assign ~op_id:id
                | None -> A.cluster_of assign ~op_id:(fst (List.hd defs))
              in
              List.iter
                (fun (id, locked) ->
                  if locked && A.cluster_of assign ~op_id:id <> target then
                    invalid_arg
                      "Methods.rehome_memory: conflicting locked definitions"
                  else A.set_cluster assign ~op_id:id target)
                defs))
        defs_of)
    (Prog.funcs ctx.prog)

let run_naive ?pool ctx : outcome =
  let assign = unified_assignment ?pool ctx in
  let homes =
    Baselines.naive_homes ~merge:ctx.merge ~profile:ctx.profile ~assign
      ~num_clusters:(Vliw_machine.num_clusters ctx.machine) ()
  in
  let lock_of = lock_table ctx homes in
  rehome_memory ctx assign lock_of;
  set_homes assign homes;
  let clustered = Vliw_sched.Move_insert.apply ctx.prog assign in
  {
    method_name = to_string Naive;
    clustered;
    obj_home = homes;
    rhop_runs = 1;
    cut_edges = None;
  }

let run_unified ?pool ctx : outcome =
  let assign = unified_assignment ?pool ctx in
  let clustered = Vliw_sched.Move_insert.apply ctx.prog assign in
  {
    method_name = to_string Unified;
    clustered;
    obj_home = [];
    rhop_runs = 1;
    cut_edges = None;
  }

let run ?gdp_config ?pool method_ ctx : outcome =
  match method_ with
  | Gdp -> run_gdp ?gdp_config ?pool ctx
  | Profile_max -> run_profile_max ?pool ctx
  | Naive -> run_naive ?pool ctx
  | Unified -> run_unified ?pool ctx

(** Evaluate an outcome under the cycle model. *)
let evaluate ctx (o : outcome) : Vliw_sched.Perf.report =
  Vliw_sched.Perf.evaluate ~machine:ctx.machine o.clustered
    ~profile:ctx.profile ~objects_of:(objects_of ctx) ()
