(** Schedule-length estimation for RHOP (paper Section 3.4): resource,
    bus and stretched-critical-path bounds for a candidate cluster
    assignment of one block, plus a graded resource term that gives
    hill-climbing refinement a gradient, and an additive charge for
    cross-block move pressure.  Lower cost is better. *)

type t

val make :
  machine:Vliw_machine.t ->
  deps:Vliw_sched.Deps.t ->
  pins:(int * int) list ->
  couplings:(int * int) list ->
  live_out:Vliw_ir.Reg.Set.t ->
  xmove_weight:int ->
  t

(** The estimate of an assignment (op index to cluster), computed from
    scratch. *)
val cost : t -> int array -> int

(** {1 Incremental estimate}

    [t] tracks one assignment and keeps the terms of its estimate, so
    a move is priced by the terms it changes. *)

(** [load t cluster] makes [cluster] the tracked assignment and builds
    its terms.  Change [cluster] only through [move] afterwards. *)
val load : t -> int array -> unit

(** [move t ops c] puts the distinct ops [ops] on cluster [c] in the
    tracked assignment and updates the terms they change. *)
val move : t -> int list -> int -> unit

(** The estimate of the tracked assignment: [cost t cluster]. *)
val current : t -> int

(** [price t ~best moved] is [current t] when that is below [best], and
    otherwise some value from [best] up to [current t].  [moved] should
    list the ops moved since the last reading, in ascending order: any
    list keeps that contract, and that one prunes the most.  Before it
    recomputes any level it tries [path_bound], then
    [group_bound t moved], and it stops recomputing levels once they
    show the estimate reaches [best]; the levels it leaves stale are
    recomputed by the next reading. *)
val price : t -> best:int -> int list -> int

(** Lower bounds on [current t] that recompute no level: every term as
    tracked, but the dependence bound replaced by the block's critical
    path with no edge stretched ([path_bound]), or by the longest path
    that the levels of [moved] (ascending, as for [price]) are known to
    start ([group_bound]). *)
val path_bound : t -> int

val group_bound : t -> int list -> int

(** Dependence levels recomputed by [current] and [price] since
    [make]. *)
val relevels : t -> int

(** Readings of [price] that returned without the exact estimate. *)
val pruned : t -> int
