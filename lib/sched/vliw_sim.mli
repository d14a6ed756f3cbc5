(** Cycle-level simulator for scheduled, clustered programs.

    Executes the clustered program's schedule ([Move_insert.schedule],
    the one [Perf] sums) with explicit timing (reads at issue, commits at
    issue + latency), checks per-cycle function-unit and bus legality of
    every executed block, flags latency violations, and reproduces the
    reference interpreter's observable outputs when the pipeline is
    correct.  Its cycle and move counts equal [Perf]'s exactly when the
    executed block visits match the profile.

    It works each entry's latency and route out again from the machine
    and the program's move routes, and never reads the [ready], [lat]
    or [hops] the scheduler recorded in its entries: its latency and
    resource checks test the scheduler, so they do not trust its
    record.  Cycle attribution is [Attrib]'s, over the same schedules
    weighted by the profile. *)

open Vliw_ir

exception Sim_error of string

type result = {
  outputs : Vliw_interp.Interp.value list;
  cycles : int;
  dynamic_moves : int;
}

val run :
  ?fuel:int ->
  Move_insert.clustered ->
  machine:Vliw_machine.t ->
  ?objects_of:(int -> Data.Obj_set.t) ->
  input:int array ->
  unit ->
  result
