(** Global Data Partitioning — first pass (paper Section 3.3).

    Works on the program-level data-flow graph: every operation is a
    node; access-pattern merging collapses memory operations with the
    objects they touch into group nodes carrying the group's data size;
    the multilevel graph partitioner ([Graphpart], our METIS) splits the
    graph minimizing cut flow edges while balancing two node-weight
    constraints — data bytes (tight) and operation count (loose).  The
    cluster of each group node becomes the home of its data objects. *)

open Vliw_ir
module An = Vliw_analysis

type config = {
  data_imbalance : float;  (** tolerance on per-cluster data bytes *)
  op_imbalance : float;  (** tolerance on per-cluster op counts *)
  seed : int;
}

let default_config = { data_imbalance = 0.25; op_imbalance = 0.8; seed = 42 }

type result = {
  obj_home : (Data.obj * int) list;
  edgecut : int;
  num_units : int;  (** nodes of the collapsed graph *)
  unit_of_op : (int, int) Hashtbl.t;
  part_of_unit : int array;
}

type problem = {
  graph : Graphpart.Graph.t;
  pconfig : Graphpart.Partitioner.config;
  prob_unit_of_op : (int, int) Hashtbl.t;
  prob_num_units : int;
}

let build_problem ?(config = default_config)
    ~(machine : Vliw_machine.t) ~(prog : Prog.t) ~(merge : Merge.t)
    ~(dfg : An.Prog_dfg.t) ~(profile : Vliw_interp.Profile.t) () : problem =
  let num_clusters = Vliw_machine.num_clusters machine in
  let ngroups = Merge.num_groups merge in
  (* units: one per merge group, then one per remaining operation *)
  let unit_of_op = Hashtbl.create 256 in
  let next_unit = ref ngroups in
  Prog.iter_ops
    (fun op ->
      match Merge.group_of_op merge (Op.id op) with
      | Some g -> Hashtbl.replace unit_of_op (Op.id op) g
      | None ->
          Hashtbl.replace unit_of_op (Op.id op) !next_unit;
          incr next_unit)
    prog;
  let nunits = !next_unit in
  let weights = Array.init nunits (fun _ -> [| 0; 0 |]) in
  for g = 0 to ngroups - 1 do
    weights.(g).(0) <- (Merge.group merge g).Merge.bytes
  done;
  Prog.iter_ops
    (fun op ->
      let u = Hashtbl.find unit_of_op (Op.id op) in
      weights.(u).(1) <- weights.(u).(1) + 1)
    prog;
  (* flow edges are weighted by how often they are traversed at run time
     (the consumer's execution count): the first pass's "high-level model
     of the required intercluster communication traffic" (Section 3.3) *)
  let dyn_weight a b =
    let ca = Vliw_interp.Profile.op_count profile ~op_id:a in
    let cb = Vliw_interp.Profile.op_count profile ~op_id:b in
    1 + min 100_000 (min ca cb)
  in
  let edges = ref [] in
  An.Prog_dfg.iter_edges
    (fun a b w ->
      let ua = Hashtbl.find unit_of_op a and ub = Hashtbl.find unit_of_op b in
      if ua <> ub then edges := (ua, ub, w * dyn_weight a b) :: !edges)
    dfg;
  let graph = Graphpart.Graph.create ~ncon:2 ~weights ~edges:!edges in
  (* asymmetric machines get proportional balance targets: data bytes
     follow the clusters' memory sizes, operation counts follow their
     total function-unit counts (the paper parameterizes the memory
     balance for this case, Section 3.3.2) *)
  let targets =
    if num_clusters <> 2 then None
    else begin
      let cl i = Vliw_machine.cluster_of machine i in
      let mem i = float (cl i).Vliw_machine.memory_bytes in
      let fus i =
        float
          (List.fold_left
             (fun acc k -> acc + Vliw_machine.fu_count (cl i) k)
             0 Vliw_machine.all_fu_kinds)
      in
      let data_share = mem 0 /. (mem 0 +. mem 1) in
      let op_share = fus 0 /. (fus 0 +. fus 1) in
      if Float.abs (data_share -. 0.5) < 0.01 && Float.abs (op_share -. 0.5) < 0.01
      then None
      else Some [| data_share; op_share |]
    end
  in
  let pcfg =
    {
      (Graphpart.Partitioner.default_config ~ncon:2) with
      Graphpart.Partitioner.imbalance =
        [| config.data_imbalance; config.op_imbalance |];
      targets;
      seed = config.seed;
    }
  in
  {
    graph;
    pconfig = pcfg;
    prob_unit_of_op = unit_of_op;
    prob_num_units = nunits;
  }

let partition_objects ?config ?pool ~(machine : Vliw_machine.t)
    ~(prog : Prog.t) ~(merge : Merge.t) ~(dfg : An.Prog_dfg.t)
    ~(profile : Vliw_interp.Profile.t) () : result =
  Telemetry.with_span "graph-partition" @@ fun () ->
  let num_clusters = Vliw_machine.num_clusters machine in
  let { graph; pconfig = pcfg; prob_unit_of_op = unit_of_op; prob_num_units = nunits } =
    build_problem ?config ~machine ~prog ~merge ~dfg ~profile ()
  in
  (* fault injection: hand the partitioner balance constraints no
     bisection can satisfy; [Partitioner.validate_config] rejects them *)
  let pcfg =
    if Fault.fire "partition.infeasible" then
      { pcfg with Graphpart.Partitioner.imbalance = [| -1.0; -1.0 |] }
    else pcfg
  in
  let part =
    if num_clusters = 2 then
      Graphpart.Partitioner.bisect ~config:pcfg ?pool graph
    else Graphpart.Partitioner.kway ~config:pcfg ?pool graph ~nparts:num_clusters
  in
  (* The bisection objective is mirror-symmetric, but the downstream
     computation partitioner is not: RHOP starts every free operation on
     cluster 0 and refines from there.  Homing the heavier data side
     (with its locked memory operations) on cluster 1 hands refinement a
     spread starting point instead of a congested one, so on symmetric
     machines we fix that orientation.  Only when intercluster moves are
     multi-cycle, though: at 1-cycle latency refinement un-congests a
     packed start cheaply and the orientation is best left alone. *)
  if
    num_clusters = 2
    && Vliw_machine.move_latency machine > 1
    && pcfg.Graphpart.Partitioner.targets = None
  then begin
    let pw = Graphpart.Graph.part_weights graph part ~nparts:2 0 in
    if pw.(0) > pw.(1) then
      Array.iteri (fun i p -> part.(i) <- 1 - p) part
  end;
  let obj_home =
    List.concat_map
      (fun (g : Merge.group) ->
        List.map (fun o -> (o, part.(g.Merge.id))) g.Merge.objects)
      (Array.to_list merge.Merge.groups)
  in
  (* fault injection: split one multi-object merge group across
     clusters.  The corrupt assignment violates home-cluster locking
     and must be caught downstream ([Methods.lock_table]). *)
  let obj_home =
    let splittable =
      Array.exists
        (fun (g : Merge.group) -> List.length g.Merge.objects >= 2)
        merge.Merge.groups
    in
    if splittable && Fault.fire "partition.split-group" then begin
      let victim =
        let candidates =
          Array.to_list merge.Merge.groups
          |> List.filter (fun (g : Merge.group) ->
                 List.length g.Merge.objects >= 2)
        in
        List.nth candidates (Fault.rand "partition.split-group"
                               (List.length candidates))
      in
      let moved = List.hd victim.Merge.objects in
      List.map
        (fun (o, c) ->
          if Data.equal_obj o moved then (o, (c + 1) mod num_clusters)
          else (o, c))
        obj_home
    end
    else obj_home
  in
  let edgecut = Graphpart.Graph.edge_cut graph part in
  if Telemetry.is_enabled () then begin
    Telemetry.incr "gdp.units" ~by:nunits;
    Telemetry.incr "gdp.cut_edges" ~by:edgecut;
    (* achieved data-byte balance: heaviest cluster's share of the total,
       1/num_clusters = perfect; an arg of this compile's
       [graph-partition] span *)
    let pw =
      Graphpart.Graph.part_weights graph part ~nparts:num_clusters 0
    in
    let total = Array.fold_left ( + ) 0 pw in
    if total > 0 then
      Telemetry.span_arg "data_balance_ratio"
        (Printf.sprintf "%.4f"
           (float (Array.fold_left max 0 pw) /. float total))
  end;
  {
    obj_home;
    edgecut;
    num_units = nunits;
    unit_of_op;
    part_of_unit = part;
  }
