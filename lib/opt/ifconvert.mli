(** If-conversion: predicated hyperblock formation (the Trimaran/IMPACT
    region-formation substrate).  Flattens call-free diamonds and
    triangles into straight-line guarded code, interleaved with
    straightening, to a fixpoint: hyperblocks grow to at most 160
    ops, and a branch side of at most 48 ops is convertible.  Semantics
    are preserved (checked by the property tests). *)

open Vliw_ir

val run : Prog.t -> Prog.t
