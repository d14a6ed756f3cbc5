(** Execution profile gathered by the interpreter: block execution
    counts, per-operation object access counts, and heap allocation
    sizes per malloc site (paper Sections 3.2 and 4.1). *)

open Vliw_ir

type t

(** Build a profile from the interpreter's counts: executions per
    executed block (keyed by function name and label), executions per
    op id, each memory op's accesses per object (by op id) and total
    bytes per malloc site that executed, sorted by site. *)
val make :
  blocks:((string * Label.t) * int) list ->
  ops:int array ->
  accesses:(Data.obj * int) list array ->
  heap_sizes:(int * int) list ->
  t

(** {2 Queries} *)

val block_count : t -> func:string -> label:Label.t -> int
val op_count : t -> op_id:int -> int

(** Per object, in the order the op first touched them. *)
val accesses_of : t -> op_id:int -> (Data.obj * int) list

(** Dynamic accesses summed over all memory operations, per object,
    sorted by object. *)
val object_access_totals : t -> (Data.obj * int) list

(** Total bytes per malloc site, sorted by site. *)
val heap_sizes : t -> (int * int) list

(** Object table of a program under this profile (heap sites that never
    executed get size 0). *)
val object_table : Prog.t -> t -> Data.table

val pp : t Fmt.t
