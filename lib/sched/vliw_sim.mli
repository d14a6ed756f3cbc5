(** Cycle-level simulator for scheduled, clustered programs.

    Executes the clustered program's schedule ([Move_insert.schedule],
    the one [Perf] sums) with explicit timing (reads at issue, commits at
    issue + latency), checks per-cycle function-unit and bus legality of
    every executed block, flags latency violations, and reproduces the
    reference interpreter's observable outputs when the pipeline is
    correct.  Its cycle and move counts equal [Perf]'s exactly when the
    executed block visits match the profile. *)

open Vliw_ir

exception Sim_error of string

type result = {
  outputs : Vliw_interp.Interp.value list;
  cycles : int;
  dynamic_moves : int;
  account : Attrib.totals option;
      (** dynamic cycle attribution, populated when run with
          [~account:true]; the accounting identity
          [cycles = sum of categories] is enforced (a violation raises
          [Sim_error]).  [None] otherwise — the disabled path does no
          attribution work. *)
}

val run :
  ?fuel:int ->
  ?account:bool ->
  Move_insert.clustered ->
  machine:Vliw_machine.t ->
  ?objects_of:(int -> Data.Obj_set.t) ->
  input:int array ->
  unit ->
  result
