(** The comparison object partitioners (paper Section 4.1, Table 1):
    Profile Max (greedy by dynamic frequency with a memory-balance
    threshold) and Naive (max-frequency placement, no balance). *)

open Vliw_ir

(** Per merge group: dynamic access frequency per cluster under an
    existing computation assignment. *)
val group_frequencies :
  merge:Merge.t ->
  profile:Vliw_interp.Profile.t ->
  assign:Vliw_sched.Assignment.t ->
  num_clusters:int ->
  (int * int array) list

(** Profile Max object placement: greedy by descending total frequency,
    each cluster holding at most [1.25 / nclusters] of the total data
    bytes. *)
val profile_max_homes :
  merge:Merge.t ->
  profile:Vliw_interp.Profile.t ->
  assign:Vliw_sched.Assignment.t ->
  num_clusters:int ->
  unit ->
  (Data.obj * int) list

val naive_homes :
  merge:Merge.t ->
  profile:Vliw_interp.Profile.t ->
  assign:Vliw_sched.Assignment.t ->
  num_clusters:int ->
  unit ->
  (Data.obj * int) list
