(** Region-based Hierarchical Operation Partitioning (RHOP) extended
    with locked memory operations (paper Section 3.4; original from
    PLDI 2003).  Processes each function block by block: pre-merges
    register webs, locks memory operations to their objects' homes and
    registers to earlier-block decisions, then coarsens along low-slack
    flow edges and refines with [Est] schedule estimates. *)

open Vliw_ir

type config = {
  xmove_weight : int option;
      (** cycles charged per cross-block move; default: move latency *)
  coarsen_until : int;
  max_passes : int;
}

val default_config : config

(** Fill in the operation clusters of [assign] for the whole program.
    [lock_of] gives mandatory clusters (memory operations under a data
    partition); object homes in [assign] are the caller's business.

    Each function's blocks are partitioned in dependency waves: block
    [j] waits only for earlier blocks defining a register [j] defines
    or uses, and the blocks of one wave evaluate concurrently on
    [pool] (inline without one).  Results are committed in layout
    order, so the output is the same for any pool width. *)
val partition :
  ?config:config ->
  ?pool:Par.pool ->
  machine:Vliw_machine.t ->
  objects_of:(int -> Data.Obj_set.t) ->
  lock_of:(int -> int option) ->
  Prog.t ->
  Vliw_sched.Assignment.t ->
  unit
