(** The schedule of a clustered program, built once per compile: per
    function its CFG and liveness, per block its list schedule under the
    live-out drain rule.  The cycle model sums it, the simulator executes
    it, attribution and the explain report classify it.  Get it with
    [Move_insert.schedule]. *)

open Vliw_ir

type func = {
  cfg : Vliw_analysis.Cfg.t;
  liveness : Vliw_analysis.Liveness.t;
  blocks : List_sched.t array;  (** by CFG block index *)
}

type t

(** The default points-to oracle: no memory operation touches a known
    object.  One value, so callers that omit [objects_of] share a
    schedule. *)
val no_objects : int -> Data.Obj_set.t

val build :
  machine:Vliw_machine.t ->
  objects_of:(int -> Data.Obj_set.t) ->
  assign:Assignment.t ->
  move_routes:(int, int * int) Hashtbl.t ->
  Prog.t ->
  t

(** Built for this machine and points-to oracle (physical equality)? *)
val built_for :
  t -> machine:Vliw_machine.t -> objects_of:(int -> Data.Obj_set.t) -> bool

(** Raises [Not_found] for a function the program does not have. *)
val find_func : t -> string -> func

(** Every block with its schedule, functions as in [Prog.funcs] and
    blocks as in [Func.blocks]. *)
val iter : (Func.t -> Block.t -> List_sched.t -> unit) -> t -> unit
