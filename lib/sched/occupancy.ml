(** Schedule occupancy statistics: how full each cluster's function
    units and the intercluster interconnect are, per block and
    aggregated.  Used by the CLI's schedule dump and by tests checking
    that the scheduler actually exploits both clusters when the
    partition spreads work.

    Interconnect occupancy counts link crossings: every move charges
    one issue slot per hop of its route (its entry's [hops]), against a
    capacity of [num_links * moves_per_cycle] slots per cycle.  On the
    bus (one link, one hop per move) both numbers reduce to the seed's
    move count and bus bandwidth. *)

open Vliw_ir

type t = {
  cycles : int;  (** schedule length *)
  fu_issues : int array array;  (** [cluster][fu kind] issue count *)
  bus_issues : int;  (** intercluster moves issued *)
  link_issues : int;  (** link crossings: moves weighted by hop count *)
  fu_capacity : int array array;  (** per-cycle capacity *)
  bus_capacity : int;  (** per-link issue bandwidth *)
  num_links : int;
}

let of_schedule ~(machine : Vliw_machine.t) (s : List_sched.t) : t =
  let nclusters = Vliw_machine.num_clusters machine in
  let fu_issues = Array.make_matrix nclusters Vliw_machine.fu_kind_count 0 in
  let bus_issues = ref 0 in
  let link_issues = ref 0 in
  Array.iter
    (fun (e : List_sched.entry) ->
      match e.List_sched.cluster with
      | None ->
          incr bus_issues;
          link_issues := !link_issues + e.List_sched.hops
      | Some c ->
          let k = Vliw_machine.fu_kind_index (Op.fu_kind e.List_sched.op) in
          fu_issues.(c).(k) <- fu_issues.(c).(k) + 1)
    (List_sched.entries s);
  let fu_capacity =
    Array.init nclusters (fun c ->
        Array.init Vliw_machine.fu_kind_count (fun k ->
            Vliw_machine.fu_count
              (Vliw_machine.cluster_of machine c)
              (List.nth Vliw_machine.all_fu_kinds k)))
  in
  {
    cycles = List_sched.length s;
    fu_issues;
    bus_issues = !bus_issues;
    link_issues = !link_issues;
    fu_capacity;
    bus_capacity = Vliw_machine.moves_per_cycle machine;
    num_links = Vliw_machine.num_links machine;
  }

(** Merge weighted per-block occupancies (weight = execution count). *)
let accumulate (a : t) ~(weight : int) (acc : t option) : t =
  let scale x = x * weight in
  match acc with
  | None ->
      {
        a with
        cycles = scale a.cycles;
        fu_issues = Array.map (Array.map scale) a.fu_issues;
        bus_issues = scale a.bus_issues;
        link_issues = scale a.link_issues;
      }
  | Some acc ->
      {
        acc with
        cycles = acc.cycles + scale a.cycles;
        fu_issues =
          Array.mapi
            (fun c per -> Array.mapi (fun k n -> n + scale a.fu_issues.(c).(k)) per)
            acc.fu_issues;
        bus_issues = acc.bus_issues + scale a.bus_issues;
        link_issues = acc.link_issues + scale a.link_issues;
      }

(** Every block of the program's schedule, weighted by its profiled
    execution count. *)
let of_program ~(machine : Vliw_machine.t) ~(profile : Vliw_interp.Profile.t)
    (sched : Schedule.t) : t option =
  let acc = ref None in
  Schedule.iter
    (fun f b s ->
      let weight =
        Vliw_interp.Profile.block_count profile ~func:(Func.name f)
          ~label:(Block.label b)
      in
      acc := Some (accumulate (of_schedule ~machine s) ~weight !acc))
    sched;
  !acc

(** Fraction of available slots used by issues, per cluster/kind. *)
let fu_utilization (t : t) c k =
  let cap = t.fu_capacity.(c).(k) * t.cycles in
  if cap = 0 then 0. else float t.fu_issues.(c).(k) /. float cap

(** Link-slot occupancy: crossings over [num_links * bandwidth *
    cycles] — the seed's bus utilization on bus machines. *)
let bus_utilization (t : t) =
  let cap = t.num_links * t.bus_capacity * t.cycles in
  if cap = 0 then 0. else float t.link_issues /. float cap

(** Share of all issued (non-move) operations executed by each cluster:
    the workload-balance view of a partition. *)
let cluster_shares (t : t) : float array =
  let per_cluster = Array.map (Array.fold_left ( + ) 0) t.fu_issues in
  let total = Array.fold_left ( + ) 0 per_cluster in
  Array.map
    (fun n -> if total = 0 then 0. else float n /. float total)
    per_cluster

let pp ppf (t : t) =
  Fmt.pf ppf "@[<v>occupancy over %d cycle(s):@," t.cycles;
  Array.iteri
    (fun c per ->
      Fmt.pf ppf "  cluster %d:" c;
      List.iter
        (fun k ->
          let i = Vliw_machine.fu_kind_index k in
          if t.fu_capacity.(c).(i) > 0 then
            Fmt.pf ppf " %s %d (%.0f%%)" (Vliw_machine.fu_kind_name k) per.(i)
              (100. *. fu_utilization t c i))
        Vliw_machine.all_fu_kinds;
      Fmt.pf ppf "@,")
    t.fu_issues;
  if t.num_links <= 1 then
    Fmt.pf ppf "  bus: %d move(s) (%.0f%%)@]" t.bus_issues
      (100. *. bus_utilization t)
  else
    Fmt.pf ppf "  links: %d move(s), %d crossing(s) over %d links (%.0f%%)@]"
      t.bus_issues t.link_issues t.num_links
      (100. *. bus_utilization t)
