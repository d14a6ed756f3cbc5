(** Interprocedural points-to analysis: flow-insensitive,
    context-insensitive, inclusion-based (Andersen style) over virtual
    registers — the stand-in for the IMPACT pointer analysis of paper
    Section 3.2.  Annotates each load/store/alloc with the set of data
    objects it may access. *)

open Vliw_ir

type t

val compute : Prog.t -> t

(** May-access set of a memory-touching operation; empty otherwise. *)
val objects_of : t -> int -> Data.Obj_set.t

val points_to : t -> func:string -> reg:Reg.t -> Data.Obj_set.t
