(** Cluster assignments.

    An assignment maps every operation of a program to a cluster and
    (for partitioned-memory machines) every data object to its home
    cluster.  Assignments are produced by the partitioners and consumed
    by move insertion and the scheduler; they are side tables — the IR
    itself is never mutated.

    Invariants (checked by [validate]):
    - every operation of the program has a cluster in range;
    - all definitions of a register sit on one cluster (the register's
      home: a value lives in exactly one register file);
    - a memory operation assigned to cluster [c] only accesses objects
      homed on [c] (scratchpad memories are cluster-local).

    [check_units] checks one more against a machine: every operation
    but a move sits on a cluster with a unit of its kind. *)

open Vliw_ir

type t = {
  num_clusters : int;
  op_cluster : (int, int) Hashtbl.t;  (** op id -> cluster *)
  obj_home : (Data.obj, int) Hashtbl.t;
      (** empty for the unified-memory model *)
}

let create ~num_clusters =
  {
    num_clusters;
    op_cluster = Hashtbl.create 256;
    obj_home = Hashtbl.create 32;
  }

let set_cluster t ~op_id cluster =
  if cluster < 0 || cluster >= t.num_clusters then
    invalid_arg "Assignment.set_cluster: cluster out of range";
  Hashtbl.replace t.op_cluster op_id cluster

let cluster_of t ~op_id =
  match Hashtbl.find_opt t.op_cluster op_id with
  | Some c -> c
  | None -> invalid_arg (Fmt.str "Assignment.cluster_of: op %d unassigned" op_id)

let cluster_of_opt t ~op_id = Hashtbl.find_opt t.op_cluster op_id

let set_home t obj cluster =
  if cluster < 0 || cluster >= t.num_clusters then
    invalid_arg "Assignment.set_home: cluster out of range";
  Hashtbl.replace t.obj_home obj cluster

let home_of t obj = Hashtbl.find_opt t.obj_home obj

let has_homes t = Hashtbl.length t.obj_home > 0

let copy t =
  {
    num_clusters = t.num_clusters;
    op_cluster = Hashtbl.copy t.op_cluster;
    obj_home = Hashtbl.copy t.obj_home;
  }

(** Home cluster of each register of [f]: the common cluster of its
    defining operations.  Registers with no defs (parameters and dead
    registers) are absent. *)
let reg_homes t (f : Func.t) : (Reg.t, int) Hashtbl.t =
  let homes = Hashtbl.create 64 in
  Func.iter_ops
    (fun op ->
      match cluster_of_opt t ~op_id:(Op.id op) with
      | None -> ()
      | Some c ->
          List.iter
            (fun r ->
              match Hashtbl.find_opt homes r with
              | None -> Hashtbl.replace homes r c
              | Some c' ->
                  if c <> c' then
                    invalid_arg
                      (Fmt.str
                         "Assignment.reg_homes: %a defined on clusters %d and \
                          %d in %s"
                         Reg.pp r c c' (Func.name f)))
            (Op.defs op))
    f;
  homes

exception Invalid of string

let fail fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt

(** Check the assignment invariants for [prog], with [objects_of] giving
    the may-access set of each memory operation. *)
let validate t prog ~objects_of =
  Prog.iter_ops
    (fun op ->
      match cluster_of_opt t ~op_id:(Op.id op) with
      | None -> fail "op %d has no cluster" (Op.id op)
      | Some c ->
          if c < 0 || c >= t.num_clusters then
            fail "op %d on out-of-range cluster %d" (Op.id op) c;
          if Op.is_mem op && has_homes t then
            Data.Obj_set.iter
              (fun obj ->
                match home_of t obj with
                | None -> fail "object %a has no home" Data.pp_obj obj
                | Some h ->
                    if h <> c then
                      fail "memory op %d on cluster %d accesses %a homed on %d"
                        (Op.id op) c Data.pp_obj obj h)
              (objects_of (Op.id op)))
    prog;
  List.iter (fun f -> ignore (reg_homes t f)) (Prog.funcs prog)

(** Raise [Invalid] when an operation other than a move sits on a
    cluster of [machine] without a unit of its kind, which the
    scheduler could never issue; the message names the op, the cluster
    and the kind.  A move crossing clusters issues on the interconnect,
    so only the scheduler, which knows the routes, checks moves. *)
let check_units ~machine t prog =
  Prog.iter_ops
    (fun op ->
      match cluster_of_opt t ~op_id:(Op.id op) with
      | Some c when not (Op.is_move op) ->
          let kind = Op.fu_kind op in
          if Vliw_machine.fu_count (Vliw_machine.cluster_of machine c) kind = 0
          then
            fail "op %d on cluster %d, which has no %s unit" (Op.id op) c
              (Vliw_machine.fu_kind_name kind)
      | _ -> ())
    prog
