(** The comparison object partitioners (paper Section 4.1, Table 1).

    - {b Profile Max}: run the detailed computation partitioner once
      assuming a unified memory, record where each merged object group's
      accesses landed, then greedily place groups — highest dynamic
      frequency first — on their preferred cluster, spilling to the other
      cluster when a memory-balance threshold is exceeded.  A second
      RHOP pass then partitions computation with the objects locked.

    - {b Naive}: same unified-memory run, then place every group on the
      cluster with the most dynamic accesses with {e no} balance and
      {e no} repartitioning: memory operations are simply re-homed and
      move insertion patches up the traffic (the Figure 2 experiment). *)

open Vliw_ir
module A = Vliw_sched.Assignment
module P = Vliw_interp.Profile

(** Dynamic access frequency of each merge group per cluster under an
    existing computation assignment. *)
let group_frequencies ~(merge : Merge.t) ~(profile : P.t) ~(assign : A.t)
    ~num_clusters : (int * int array) list =
  List.map
    (fun (g : Merge.group) ->
      let freq = Array.make num_clusters 0 in
      List.iter
        (fun op_id ->
          match A.cluster_of_opt assign ~op_id with
          | Some c -> freq.(c) <- freq.(c) + P.op_count profile ~op_id
          | None -> ())
        g.Merge.mem_ops;
      (g.Merge.id, freq))
    (Array.to_list merge.Merge.groups)

let preferred freq =
  let best = ref 0 in
  Array.iteri (fun c n -> if n > freq.(!best) then best := c) freq;
  !best

(** Profile Max object placement: greedy by descending total frequency,
    each cluster holding at most [1.25 / nclusters] of the total data
    bytes (a 25% memory-balance tolerance). *)
let profile_max_homes ~(merge : Merge.t) ~(profile : P.t) ~(assign : A.t)
    ~num_clusters () : (Data.obj * int) list =
  let freqs = group_frequencies ~merge ~profile ~assign ~num_clusters in
  let total_bytes =
    Array.fold_left (fun acc g -> acc + g.Merge.bytes) 0 merge.Merge.groups
  in
  let cap =
    int_of_float (ceil (1.25 /. float num_clusters *. float total_bytes))
  in
  let by_freq =
    List.sort
      (fun (_, fa) (_, fb) ->
        compare (Array.fold_left ( + ) 0 fb) (Array.fold_left ( + ) 0 fa))
      freqs
  in
  let used = Array.make num_clusters 0 in
  List.concat_map
    (fun (gid, freq) ->
      let g = Merge.group merge gid in
      let pref = preferred freq in
      let fits c = used.(c) + g.Merge.bytes <= cap in
      let chosen =
        if fits pref then pref
        else begin
          (* spill to the least-loaded cluster that fits, else least-loaded *)
          let best = ref 0 in
          for c = 1 to num_clusters - 1 do
            if used.(c) < used.(!best) then best := c
          done;
          let candidate = ref !best in
          for c = 0 to num_clusters - 1 do
            if fits c && (not (fits !candidate) || freq.(c) > freq.(!candidate))
            then candidate := c
          done;
          !candidate
        end
      in
      used.(chosen) <- used.(chosen) + g.Merge.bytes;
      List.map (fun o -> (o, chosen)) g.Merge.objects)
    by_freq

(** Naive object placement: every group on its most-accessed cluster,
    balance ignored. *)
let naive_homes ~(merge : Merge.t) ~(profile : P.t) ~(assign : A.t)
    ~num_clusters () : (Data.obj * int) list =
  let freqs = group_frequencies ~merge ~profile ~assign ~num_clusters in
  List.concat_map
    (fun (gid, freq) ->
      let g = Merge.group merge gid in
      List.map (fun o -> (o, preferred freq)) g.Merge.objects)
    freqs
