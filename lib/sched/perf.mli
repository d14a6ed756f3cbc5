(** Static performance model (paper Section 4.1): with 100%-hit
    partitioned memories, total cycles = sum over blocks of schedule
    length x dynamic execution count; dynamic intercluster traffic =
    executed [Move] operations.  The schedules are the clustered
    program's ([Move_insert.schedule]), built here at the first call
    and then executed by the simulator. *)

open Vliw_ir

type report = { total_cycles : int; dynamic_moves : int; static_moves : int }

val evaluate :
  machine:Vliw_machine.t ->
  Move_insert.clustered ->
  profile:Vliw_interp.Profile.t ->
  ?objects_of:(int -> Data.Obj_set.t) ->
  unit ->
  report

val pp : report Fmt.t
