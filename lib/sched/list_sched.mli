(** Cluster-aware list scheduler.

    Non-move operations occupy one slot of their FU kind on their
    assigned cluster per issue (fully pipelined units); intercluster
    moves occupy one issue slot on every link of their route through
    the interconnect ([Vliw_machine.route_links]) and take
    [hops * move_latency] cycles — on the bus topology exactly one bus
    slot and the machine's move latency.  Priorities are critical-path
    heights.  Block length uses live-out drain semantics: the branch
    has issued and every in-flight result that a later block consumes
    has committed.

    Each entry is the one record of its op's timing: besides the issue
    cycle and cluster it keeps the cycle its operands were ready, its
    latency and, for a move, the links it crosses.  Attribution
    ([Attrib]) classifies cycles from them, and [Occupancy] and [Perf]
    count moves and link crossings from them; the simulator works its
    latencies out again, so that it checks this record. *)

open Vliw_ir

type entry = {
  op : Op.t;
  cycle : int;  (** issue cycle *)
  cluster : int option;  (** [None] for an intercluster move *)
  ready : int;
      (** the cycle its last operand arrived: the latest
          [pred cycle + edge latency] over its dependence predecessors,
          0 without any; never after [cycle] *)
  lat : int;
      (** cycles until its result commits: the route latency
          ([hops * move_latency]) for a move, the machine's op latency
          otherwise *)
  hops : int;  (** links a move's route crosses; 0 for any other op *)
}

type t

val length : t -> int
val entries : t -> entry array

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
