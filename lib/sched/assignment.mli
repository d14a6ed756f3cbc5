(** Cluster assignments: operation -> cluster and data object -> home
    cluster, as side tables (the IR is never mutated).

    Invariants checked by [validate]:
    - every operation has an in-range cluster;
    - all definitions of a register sit on one cluster;
    - a memory operation only accesses objects homed on its own cluster
      (scratchpad memories are cluster-local).

    [check_units] checks, against a machine, that every operation but a
    move has a unit of its function-unit kind on its cluster. *)

open Vliw_ir

type t = {
  num_clusters : int;
  op_cluster : (int, int) Hashtbl.t;
  obj_home : (Data.obj, int) Hashtbl.t;
}

val create : num_clusters:int -> t

(** Raises [Invalid_argument] on out-of-range clusters. *)
val set_cluster : t -> op_id:int -> int -> unit

(** Raises [Invalid_argument] when the op is unassigned. *)
val cluster_of : t -> op_id:int -> int

val cluster_of_opt : t -> op_id:int -> int option
val set_home : t -> Data.obj -> int -> unit
val home_of : t -> Data.obj -> int option

(** [true] when any object has a home (partitioned-memory mode). *)
val has_homes : t -> bool

val copy : t -> t

(** Home cluster of each register (the common cluster of its defining
    ops); raises [Invalid_argument] when a register web spans
    clusters. *)
val reg_homes : t -> Func.t -> (Reg.t, int) Hashtbl.t

exception Invalid of string

(** Check all invariants against [prog]; raises [Invalid]. *)
val validate : t -> Prog.t -> objects_of:(int -> Data.Obj_set.t) -> unit

(** Raises [Invalid] naming the op, its cluster and its unit kind when
    an operation other than a move sits on a cluster of [machine]
    without a unit of its kind.  Call it after [validate]: clusters are
    assumed in range. *)
val check_units : machine:Vliw_machine.t -> t -> Prog.t -> unit
