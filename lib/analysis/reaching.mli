(** Reaching definitions and def-use chains.  Definitions are op ids;
    function parameters are pseudo-definitions with negative ids.
    Guarded definitions accumulate instead of killing. *)

open Vliw_ir

module Int_set : Set.S with type elt = int

val param_def : Reg.t -> int
val is_param_def : int -> bool

type t

val compute : Cfg.t -> t

(** Reaching definitions of [reg] at use site [op_id]. *)
val defs_of_use : t -> op_id:int -> reg:Reg.t -> Int_set.t

(** Uses (op id, register) reached by a definition. *)
val uses_of_def : t -> def_id:int -> (int * Reg.t) list
