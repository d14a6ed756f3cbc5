(** Clustered-VLIW machine description.

    The model follows Section 4.1 of Chu & Mahlke (CGO 2006): a
    multicluster VLIW in which each cluster owns a register file, a set
    of function units and a private data memory, connected by an
    intercluster bus of fixed bandwidth and latency. *)

(** Kinds of function units.  Every operation executes on exactly one
    kind; intercluster moves use the bus, modelled separately. *)
type fu_kind = FU_int | FU_float | FU_memory | FU_branch

val all_fu_kinds : fu_kind list
val fu_kind_index : fu_kind -> int
val fu_kind_count : int
val fu_kind_name : fu_kind -> string
val pp_fu_kind : fu_kind Fmt.t

(** A single cluster: function-unit counts and local memory capacity in
    bytes (the capacity steers the data partitioner's balance objective;
    it is not a hard simulator limit). *)
type cluster = { fu_counts : int array; memory_bytes : int }

val cluster :
  ?memory_bytes:int ->
  ints:int ->
  floats:int ->
  mems:int ->
  branches:int ->
  unit ->
  cluster

val fu_count : cluster -> fu_kind -> int

(** Interconnect shape.  [Bus] is the paper's shared medium (any
    transfer costs one issue slot on the one bus).  [Ring], [Crossbar]
    and [Mesh] are networks of directed point-to-point links: a
    transfer reserves an issue slot on every link of its deterministic
    route in its issue cycle and completes after
    [hops * move_latency] cycles. *)
type topology =
  | Bus
  | Ring
  | Crossbar
  | Mesh of { rows : int; cols : int }

val topology_name : topology -> string
val pp_topology : topology Fmt.t

(** Interconnect parameters: [moves_per_cycle] transfers may start per
    cycle on the bus — or per link on the other topologies — each link
    crossing completing after [move_latency] cycles (pipelined). *)
type network = {
  topology : topology;
  move_latency : int;
  moves_per_cycle : int;
}

(** Operation latencies in cycles from issue to result availability. *)
type latencies = {
  int_alu : int;
  int_mul : int;
  int_div : int;
  float_alu : int;
  float_mul : int;
  float_div : int;
  load : int;
  store : int;
  branch : int;
  compare : int;
  local_move : int;
}

(** "Similar to the Itanium" per the paper. *)
val itanium_latencies : latencies

(** Every ordered cluster pair's route, as flat arrays indexed by the
    pair [(src * num_clusters) + dst] ([route_pair]): its hop count,
    and its links in path order at [links.(link_off.(p))] to
    [links.(link_off.(p + 1) - 1)].  [v] computes it once per machine. *)
type routes = { hops : int array; link_off : int array; links : int array }

(** Private, so that only [v] builds one: [routes] is derived from
    [clusters] and [network], and a record update could not keep them
    in step. *)
type t = private {
  name : string;
  clusters : cluster array;
  network : network;
  latencies : latencies;
  routes : routes;  (** built by [v] from [clusters] and [network] *)
}

(** Build a machine; raises [Invalid_argument] on empty cluster arrays,
    nonsensical network parameters, FU-count arrays that do not cover
    every kind exactly once, negative FU counts, clusters without local
    memory, or mesh dimensions that do not tile the cluster count. *)
val v :
  name:string ->
  clusters:cluster array ->
  network:network ->
  latencies:latencies ->
  t

val num_clusters : t -> int
val cluster_of : t -> int -> cluster
val topology : t -> topology
val move_latency : t -> int
val moves_per_cycle : t -> int

(** Size of the flat per-link issue-slot table a scheduler needs: 1 on
    the bus, [n * n] otherwise (link from [a] to [b] has id
    [a * n + b]; only adjacent pairs are ever routed over). *)
val num_link_slots : t -> int

(** Number of physical links, for capacity reporting (bus = 1). *)
val num_links : t -> int

(** [(src * num_clusters) + dst], the index of a pair in [routes]. *)
val route_pair : t -> src:int -> dst:int -> int

(** Directed links crossed by a transfer, in path order; [[]] when
    [src = dst].  Deterministic: ring takes the shortest direction
    (ties clockwise), mesh routes X-then-Y over a row-major grid. *)
val route_links : t -> src:int -> dst:int -> int list

(** Hop count of that route (0 when [src = dst]; always 1 on the bus
    and crossbar). *)
val route_hops : t -> src:int -> dst:int -> int

(** [route_hops * move_latency] — the seed's [move_latency] on the
    bus. *)
val route_latency : t -> src:int -> dst:int -> int

(** Largest hop distance between any two clusters (>= 1). *)
val max_hops : t -> int
val total_fu : t -> fu_kind -> int
val is_homogeneous : t -> bool

(** The paper's reference machine: 2 homogeneous clusters with 2 integer
    / 1 float / 1 memory / 1 branch unit each and a 1-move/cycle bus. *)
val paper_machine : ?move_latency:int -> unit -> t

(** [n] homogeneous clusters of the paper's shape. *)
val scaled_machine : ?move_latency:int -> clusters:int -> unit -> t

val unified_twin : t -> t
val pp : t Fmt.t
