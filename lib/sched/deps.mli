(** Block-local dependence graphs for scheduling.

    Nodes are one block's operations in program order (terminator last);
    edges carry minimum issue distances ([succ.issue >= pred.issue +
    lat]).  Covers register flow/anti/output dependences, memory
    ordering with points-to disambiguation, side-effect ordering
    ([Out]s totally ordered, [Call]s as barriers, [Alloc]s serialized),
    and lat-0 edges into the terminator.

    The graph is built once, in one pass over the block, as flat
    arrays.  Each (source, destination) pair is one edge carrying the
    largest latency of the dependences joining the pair, and a flow
    flag set when a register flow dependence is among them.  Edges are
    stored twice in CSR form: node [i]'s predecessors are entries
    [pred_off.(i)] to [pred_off.(i + 1) - 1] of the [pred_*] arrays, its
    successors the same range of the [succ_*] arrays.  Successor rows
    are in ascending destination order, so every node but the last ends
    its row with its edge into the terminator. *)

open Vliw_ir

type t = private {
  ops : Op.t array;
  latency : int array;  (** operation latency of each node *)
  pred_off : int array;  (** [num_ops + 1] row offsets *)
  pred_node : int array;
  pred_lat : int array;
  pred_flow : bool array;
  succ_off : int array;
  succ_node : int array;
  succ_lat : int array;
  succ_flow : bool array;
  flow_def : int array;
  flow_use : int array;
      (** register flow edges (def index, use index): the edges whose
          cutting across clusters requires an intercluster move.  One
          entry per (use operand, reaching def), so a pair appears once
          per operand it feeds, newest use first. *)
}

(** [objects_of] disambiguates memory operations (everything aliases
    without it); [latency_of] overrides per-op latencies (used for
    intercluster moves). *)
val build :
  ?objects_of:(int -> Data.Obj_set.t) ->
  ?latency_of:(Op.t -> int) ->
  machine:Vliw_machine.t ->
  Block.t ->
  t

val num_ops : t -> int
val op : t -> int -> Op.t
val op_latency : t -> int -> int

(** Whether two memory ops' object sets may overlap; an empty set
    aliases everything.  Allocates nothing. *)
val may_alias : Data.Obj_set.t -> Data.Obj_set.t -> bool

(** Longest path to the end of the block including each node's own
    latency (list-scheduling priority). *)
val heights : t -> int array

val critical_path : t -> int

(** Per-node ASAP and ALAP issue times with the block critical path as
    horizon; used for the RHOP slack weights. *)
val asap_alap : t -> int array * int array
