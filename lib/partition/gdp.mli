(** Global Data Partitioning — first pass (paper Section 3.3): partition
    the program-level data-flow graph (merge groups carrying data bytes,
    remaining ops as unit-weight nodes, flow edges weighted by dynamic
    traversal counts) with the multilevel graph partitioner, balancing
    data bytes (tight) and op counts (loose).  Group parts become object
    homes. *)

open Vliw_ir

type config = {
  data_imbalance : float;
  op_imbalance : float;
  seed : int;
}

val default_config : config

type result = {
  obj_home : (Data.obj * int) list;
  edgecut : int;
  num_units : int;
  unit_of_op : (int, int) Hashtbl.t;
  part_of_unit : int array;
}

(** [?pool] runs the graph partitioner's starts and FM seeds
    concurrently; the result does not depend on it — see
    [Graphpart.Partitioner.bisect]. *)
val partition_objects :
  ?config:config ->
  ?pool:Par.pool ->
  machine:Vliw_machine.t ->
  prog:Prog.t ->
  merge:Merge.t ->
  dfg:Vliw_analysis.Prog_dfg.t ->
  profile:Vliw_interp.Profile.t ->
  unit ->
  result
