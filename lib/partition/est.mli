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

(** [move t i c] puts op [i] on cluster [c] in the tracked assignment
    and updates the terms it changes. *)
val move : t -> int -> int -> unit

(** The estimate of the tracked assignment: [cost t cluster]. *)
val current : t -> int

(** Dependence levels recomputed by [current] since [make]. *)
val relevels : t -> int
