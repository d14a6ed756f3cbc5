(** End-to-end partitioning methods (paper Table 1): GDP, Profile Max,
    Naive and the unified-memory upper bound, each producing a clustered
    program ready for the scheduler and the cycle model. *)

open Vliw_ir

type t = Gdp | Profile_max | Naive | Unified

val all : t list

(** Canonical external name ("gdp", "profile-max", "naive",
    "unified") — the spelling used by the CLI, reports, serialized
    settings and result tables.  [of_string] is its exact inverse:
    [of_string (to_string m) = Ok m] for every [m]. *)
val to_string : t -> string

(** Inverse of [to_string]; [Error] (with the accepted spellings) on
    anything else. *)
val of_string : string -> (t, string) result

(** Graceful-degradation order starting at the given method:
    GDP -> Profile Max -> Naive -> Unified.  The first element is the
    method itself; Unified is always last. *)
val fallback_chain : t -> t list

(** Everything the methods need, computed once per (program, workload,
    machine). *)
type context = {
  prog : Prog.t;
  machine : Vliw_machine.t;
  profile : Vliw_interp.Profile.t;
  pt : Vliw_analysis.Points_to.t;
  objtab : Data.table;
  merge : Merge.t;
  dfg : Vliw_analysis.Prog_dfg.t;
  objects_of : int -> Data.Obj_set.t;
      (** [Points_to.objects_of pt], one closure per context: a clustered
          program keeps its schedule for one points-to oracle
          ([Vliw_sched.Move_insert.schedule]), so the cycle model and the
          simulator share it only through this value *)
}

val make_context :
  ?merge_low_slack:bool ->
  machine:Vliw_machine.t ->
  prog:Prog.t ->
  profile:Vliw_interp.Profile.t ->
  unit ->
  context

(** The context's [objects_of] field. *)
val objects_of : context -> int -> Data.Obj_set.t

type outcome = {
  method_name : string;
  clustered : Vliw_sched.Move_insert.clustered;
  obj_home : (Data.obj * int) list;  (** empty for unified memory *)
  rhop_runs : int;  (** detailed-partitioner invocations (Section 4.5) *)
  cut_edges : int option;
      (** GDP's graph-partition cut ([Gdp.result]'s [edgecut]); [None]
          for the other methods *)
}

(** Run the computation partitioner with the given object homes locked
    and insert moves — the shared second pass of GDP and Profile Max,
    and the whole story for the Figure 9 exhaustive search. *)
val clustered_with_homes :
  ?pool:Par.pool ->
  context ->
  method_name:string ->
  rhop_runs:int ->
  (Data.obj * int) list ->
  outcome

(** Run one method on a context: the layer [Pipeline.run] calls.
    [?gdp_config] sets GDP's partitioner balance and seed (the
    imbalance ablation sweeps it); the other methods ignore it.

    [?pool] enables intra-compile parallelism: GDP's graph partitioner
    runs its starts and FM seeds concurrently, and RHOP partitions
    independent blocks in dependency waves.  The outcome does not
    depend on the pool's width, nor on whether a pool is given.  See
    [docs/parallelism.md]. *)
val run : ?gdp_config:Gdp.config -> ?pool:Par.pool -> t -> context -> outcome

(** Price an outcome under the static cycle model. *)
val evaluate : context -> outcome -> Vliw_sched.Perf.report
