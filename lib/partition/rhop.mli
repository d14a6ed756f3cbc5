(** Region-based Hierarchical Operation Partitioning (RHOP) extended
    with locked memory operations (paper Section 3.4; original from
    PLDI 2003).  Processes each function block by block: pre-merges
    register webs, locks memory operations to their objects' homes and
    registers to earlier-block decisions, then coarsens along low-slack
    flow edges and refines with [Est] schedule estimates. *)

open Vliw_ir

(** Fill in the operation clusters of [assign] for the whole program.
    [lock_of] gives mandatory clusters (memory operations under a data
    partition); object homes in [assign] are the caller's business.
    Each block coarsens to 6 groups and refines each level in up to 4
    passes; a cross-block move is charged the machine's move latency.

    Each function's blocks are partitioned in dependency waves: block
    [j] waits only for earlier blocks defining a register [j] defines
    or uses, and the blocks of one wave evaluate concurrently on
    [pool] (inline without one).  Results are committed in layout
    order, so the output is the same for any pool width. *)
val partition :
  ?pool:Par.pool ->
  machine:Vliw_machine.t ->
  objects_of:(int -> Data.Obj_set.t) ->
  lock_of:(int -> int option) ->
  Prog.t ->
  Vliw_sched.Assignment.t ->
  unit
