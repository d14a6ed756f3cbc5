(** Intercluster move insertion.

    Rewrites a program under a complete assignment so cross-cluster
    register flow goes through explicit [Move] operations: consumers on
    a foreign cluster read fresh shadow registers fed by a move placed
    after each reaching definition.  The result is semantically
    equivalent (the interpreter can run it) and its executed [Move]
    count is the paper's dynamic intercluster traffic metric. *)

open Vliw_ir

type clustered = {
  cprog : Prog.t;
  cassign : Assignment.t;
  move_routes : (int, int * int) Hashtbl.t;
      (** move op id -> (source cluster, destination cluster) *)
  mutable schedule : Schedule.t option;  (** kept by [schedule] *)
}

(** Raises [Invalid_argument] if the program already contains moves or
    the assignment is incomplete/inconsistent. *)
val apply : Prog.t -> Assignment.t -> clustered

(** The program's schedule on [machine] under the points-to oracle
    [objects_of] (default [Schedule.no_objects]).  The first call builds
    it and keeps it in the clustered value; later calls with the same
    machine and oracle (physical equality) return it, and a call with
    another machine or oracle builds and keeps a fresh one. *)
val schedule :
  machine:Vliw_machine.t ->
  ?objects_of:(int -> Data.Obj_set.t) ->
  clustered ->
  Schedule.t
