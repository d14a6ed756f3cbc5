(** Schedule occupancy statistics: function-unit and interconnect
    utilization per cluster, per block or aggregated over a whole
    profiled run.  Interconnect occupancy is counted in link crossings
    (one slot per hop of each move's route, read from the schedule
    entries' [hops]) against [num_links * bus_capacity] slots per
    cycle; on the bus both reduce to the seed's move count and bus
    bandwidth. *)

type t = {
  cycles : int;
  fu_issues : int array array;
  bus_issues : int;  (** moves issued *)
  link_issues : int;  (** link crossings (moves weighted by hops) *)
  fu_capacity : int array array;
  bus_capacity : int;  (** per-link issue bandwidth *)
  num_links : int;
}

(** One block's occupancy. *)
val of_schedule : machine:Vliw_machine.t -> List_sched.t -> t

(** Fold a block's occupancy, weighted by its execution count, into an
    accumulator. *)
val accumulate : t -> weight:int -> t option -> t

(** The whole program's occupancy: every block of its schedule,
    weighted by the profile's execution count ([accumulate] over
    [Schedule.iter]).  [None] when the schedule has no block. *)
val of_program :
  machine:Vliw_machine.t ->
  profile:Vliw_interp.Profile.t ->
  Schedule.t ->
  t option

val fu_utilization : t -> int -> int -> float
val bus_utilization : t -> float

(** Share of issued (non-move) operations per cluster. *)
val cluster_shares : t -> float array

val pp : t Fmt.t
