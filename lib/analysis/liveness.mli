(** Backward liveness over registers, on dense bit vectors.  Guarded
    (predicated) definitions do not kill and count as uses (the incoming
    value may flow through).  Unreachable blocks have nothing live. *)

open Vliw_ir

type t

val compute : Cfg.t -> t
val live_in : t -> int -> Reg.Set.t
val live_out : t -> int -> Reg.Set.t
