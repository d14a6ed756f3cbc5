(** Declarative machine descriptions ("gdp-machine/1").

    The portable form of a [Vliw_machine.t]: per-cluster FU counts and
    memory, interconnect topology, per-hop link latency and per-link
    bandwidth.  Resolved machines always use
    [Vliw_machine.itanium_latencies].  See [docs/machine.md]. *)

type cluster_spec = {
  ints : int;
  floats : int;
  mems : int;
  branches : int;
  memory_bytes : int;
}

type t = {
  name : string;
  clusters : cluster_spec list;
  topology : Vliw_machine.topology;
  link_latency : int;  (** cycles per hop ([Vliw_machine.move_latency]) *)
  link_bandwidth : int;
      (** transfers issued per cycle per link
          ([Vliw_machine.moves_per_cycle]) *)
}

val schema : string
(** ["gdp-machine/1"] *)

val default_memory_bytes : int

val paper_cluster : cluster_spec
(** The paper's cluster shape: 2 int / 1 float / 1 mem / 1 branch,
    32 KiB. *)

val of_legacy : clusters:int -> move_latency:int -> t
(** The spec of exactly [Vliw_machine.paper_machine] /
    [scaled_machine] — names included, so both resolve to the same
    machine.  Raises [Invalid_argument] when [clusters < 1]. *)

val preset_names : string list
(** [paper], [kway4], [ring8], [mesh16], [hetero4]. *)

val preset : ?link_latency:int -> string -> (t, string) result
(** Look up a named preset, rescaled to [link_latency] (default 5). *)

val resolve : t -> Vliw_machine.t
(** Build the concrete machine; raises [Invalid_argument] on
    unrealizable specs (via [Vliw_machine.v]). *)

val resolve_result : t -> (Vliw_machine.t, string) result
val validate : t -> (unit, string) result

val topology_of_name : string -> (Vliw_machine.topology, string) result
(** Inverse of [Vliw_machine.topology_name]: ["bus"], ["ring"],
    ["crossbar"], ["mesh<R>x<C>"]. *)

val to_json : t -> Minijson.t

val of_json : Minijson.t -> (t, string) result
(** Strict parse: unknown fields rejected, [Ok] specs always
    [resolve].  [name] may be omitted (one is derived). *)

val pp : t Fmt.t
