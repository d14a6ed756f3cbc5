(** Cluster-aware list scheduler.

    Non-move operations occupy one slot of their FU kind on their
    assigned cluster per issue (fully pipelined units); intercluster
    moves occupy one issue slot on every link of their route through
    the interconnect ([Vliw_machine.route_links]) and take
    [hops * move_latency] cycles — on the bus topology exactly one bus
    slot and the machine's move latency.  Priorities are critical-path
    heights.  Block length uses live-out drain semantics: the branch
    has issued and every in-flight result that a later block consumes
    has committed. *)

open Vliw_ir

type entry = { op : Op.t; cycle : int; cluster : int option }
(** [cluster = None] for bus moves *)

type t

val length : t -> int
val entries : t -> entry array

(** Effective latency of one op under the routed-move model: the
    route latency for an intercluster move, the machine's op latency
    otherwise.  Exposed so the attribution pass reconstructs the exact
    dependence graph the scheduler used. *)
val latency_of :
  machine:Vliw_machine.t ->
  move_routes:(int, int * int) Hashtbl.t ->
  Op.t ->
  int

(** Schedule one block.  Raises [Invalid_argument] when an op that is
    not a routed move sits on a cluster without a unit of its kind. *)
val schedule_block :
  machine:Vliw_machine.t ->
  assign:Assignment.t ->
  move_routes:(int, int * int) Hashtbl.t ->
  ?objects_of:(int -> Data.Obj_set.t) ->
  ?live_out:Reg.Set.t ->
  Block.t ->
  t

(** A valid schedule is never shorter than this (resource, bus and
    live-out-drain critical-path bounds). *)
val lower_bound :
  machine:Vliw_machine.t ->
  assign:Assignment.t ->
  move_routes:(int, int * int) Hashtbl.t ->
  ?objects_of:(int -> Data.Obj_set.t) ->
  ?live_out:Reg.Set.t ->
  Block.t ->
  int

val pp : t Fmt.t
