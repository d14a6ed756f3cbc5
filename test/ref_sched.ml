(** Reference implementations kept as test oracles: the dependence-graph
    builder and the list scheduler as they were before both moved to
    flat arrays and ready queues.  Each rescans freely (a hash table of
    edges, a full scan of the block per issue), which makes them easy to
    trust and slow.  The properties in [Test_sched] check that
    [Deps.build] and [List_sched.schedule_block] produce exactly what
    these do. *)

open Vliw_ir

type deps = {
  ops : Op.t array;
  preds : (int * int) list array;  (** (pred index, lat) per node *)
  succs : (int * int) list array;
  latency : int array;
  flow : (int * int * Reg.t) list;
      (** register flow edges (def, use, register), newest first *)
}

let may_alias objs_a objs_b =
  if Data.Obj_set.is_empty objs_a || Data.Obj_set.is_empty objs_b then true
  else not (Data.Obj_set.is_empty (Data.Obj_set.inter objs_a objs_b))

let build_deps ?(objects_of = fun _ -> Data.Obj_set.empty) ?latency_of
    ~(machine : Vliw_machine.t) (block : Block.t) : deps =
  let latency_of =
    match latency_of with
    | Some f -> f
    | None -> Op.latency machine.Vliw_machine.latencies
  in
  let ops = Array.of_list (Block.ops block) in
  let n = Array.length ops in
  let lats = Array.map latency_of ops in
  let edges = ref [] in
  let add src dst lat = if src <> dst then edges := (src, dst, lat) :: !edges in
  let last_def : (Reg.t, int) Hashtbl.t = Hashtbl.create 32 in
  let uses_since_def : (Reg.t, int list) Hashtbl.t = Hashtbl.create 32 in
  let flow = ref [] in
  for i = 0 to n - 1 do
    let o = ops.(i) in
    List.iter
      (fun r ->
        match Hashtbl.find_opt last_def r with
        | Some d ->
            add d i lats.(d);
            flow := (d, i, r) :: !flow
        | None -> ())
      (Op.uses o);
    List.iter
      (fun r ->
        Hashtbl.replace uses_since_def r
          (i :: Option.value ~default:[] (Hashtbl.find_opt uses_since_def r)))
      (Op.uses o);
    List.iter
      (fun r ->
        (match Hashtbl.find_opt last_def r with
        | Some d -> add d i lats.(d)
        | None -> ());
        List.iter
          (fun u -> add u i 0)
          (Option.value ~default:[] (Hashtbl.find_opt uses_since_def r));
        Hashtbl.replace last_def r i;
        Hashtbl.replace uses_since_def r [])
      (Op.defs o)
  done;
  let mem_ops = ref [] in
  let last_out = ref (-1) in
  let last_barrier = ref (-1) in
  let last_alloc = ref (-1) in
  for i = 0 to n - 1 do
    let o = ops.(i) in
    match Op.kind o with
    | Op.Load _ ->
        let objs = objects_of (Op.id o) in
        List.iter
          (fun (j, was_store, objs_j) ->
            if was_store && may_alias objs objs_j then add j i lats.(j))
          !mem_ops;
        mem_ops := (i, false, objs) :: !mem_ops
    | Op.Store _ ->
        let objs = objects_of (Op.id o) in
        List.iter
          (fun (j, was_store, objs_j) ->
            if may_alias objs objs_j then
              add j i (if was_store then lats.(j) else 1))
          !mem_ops;
        mem_ops := (i, true, objs) :: !mem_ops
    | Op.Out _ ->
        if !last_out >= 0 then add !last_out i 1;
        last_out := i
    | Op.Alloc _ ->
        if !last_alloc >= 0 then add !last_alloc i 1;
        last_alloc := i
    | Op.Call _ ->
        List.iter (fun (j, _, _) -> add j i lats.(j)) !mem_ops;
        if !last_out >= 0 then add !last_out i 1;
        if !last_alloc >= 0 then add !last_alloc i 1;
        if !last_barrier >= 0 then add !last_barrier i 1;
        mem_ops := [ (i, true, Data.Obj_set.empty) ];
        last_out := i;
        last_alloc := i;
        last_barrier := i
    | _ -> ()
  done;
  for i = 0 to n - 2 do
    add i (n - 1) 0
  done;
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  let best = Hashtbl.create (List.length !edges * 2) in
  List.iter
    (fun (src, dst, lat) ->
      match Hashtbl.find_opt best (src, dst) with
      | Some l when l >= lat -> ()
      | _ -> Hashtbl.replace best (src, dst) lat)
    !edges;
  Hashtbl.iter
    (fun (src, dst) lat ->
      preds.(dst) <- (src, lat) :: preds.(dst);
      succs.(src) <- (dst, lat) :: succs.(src))
    best;
  { ops; preds; succs; latency = lats; flow = !flow }

let heights d =
  let n = Array.length d.ops in
  let h = Array.make n 0 in
  for i = n - 1 downto 0 do
    let succ_max =
      List.fold_left (fun acc (j, lat) -> max acc (lat + h.(j))) 0 d.succs.(i)
    in
    h.(i) <- max d.latency.(i) succ_max
  done;
  h

(** Latency under the routed-move model: the route latency for an
    intercluster move, the machine's op latency otherwise. *)
let latency_of ~(machine : Vliw_machine.t)
    ~(move_routes : (int, int * int) Hashtbl.t) op =
  match Hashtbl.find_opt move_routes (Op.id op) with
  | Some (src, dst) -> Vliw_machine.route_latency machine ~src ~dst
  | None -> Op.latency machine.Vliw_machine.latencies op

(** The list scheduler that scans every op of the block for each issue:
    in each cycle, repeatedly issue the ready op of greatest height
    (lowest index on ties) among those whose unit or route links are
    free.  Returns the issue order as (op id, cycle, cluster, cycle its
    operands were ready, latency, hops) and the block length. *)
let schedule_block ~(machine : Vliw_machine.t)
    ~(assign : Vliw_sched.Assignment.t)
    ~(move_routes : (int, int * int) Hashtbl.t) ?(objects_of = fun _ -> Data.Obj_set.empty) ?(live_out = Reg.Set.empty)
    (block : Block.t) :
    (int * int * int option * int * int * int) list * int =
  let module A = Vliw_sched.Assignment in
  let module M = Vliw_machine in
  let is_icm op_id = Hashtbl.mem move_routes op_id in
  let lat_of = latency_of ~machine ~move_routes in
  let links_of op_id =
    match Hashtbl.find_opt move_routes op_id with
    | Some (src, dst) -> M.route_links machine ~src ~dst
    | None -> []
  in
  let deps = build_deps ~objects_of ~latency_of:lat_of ~machine block in
  let n = Array.length deps.ops in
  let heights = heights deps in
  let issue = Array.make n (-1) in
  let unscheduled_preds = Array.map List.length deps.preds in
  let ready_at = Array.make n 0 in
  let num_clusters = M.num_clusters machine in
  let cap c k =
    M.fu_count (M.cluster_of machine c) (List.nth M.all_fu_kinds k)
  in
  let fu_slots =
    Array.init num_clusters (fun c -> Array.init M.fu_kind_count (cap c))
  in
  let remaining = ref n in
  let cycle = ref 0 in
  let order = ref [] in
  let nlinks = M.num_link_slots machine in
  let link_slots = Array.make nlinks 0 in
  while !remaining > 0 do
    for c = 0 to num_clusters - 1 do
      for k = 0 to M.fu_kind_count - 1 do
        fu_slots.(c).(k) <- cap c k
      done
    done;
    Array.fill link_slots 0 nlinks (M.moves_per_cycle machine);
    let progressed = ref true in
    while !progressed do
      progressed := false;
      let best = ref (-1) in
      for i = 0 to n - 1 do
        if
          issue.(i) = -1
          && unscheduled_preds.(i) = 0
          && ready_at.(i) <= !cycle
          && (!best = -1 || heights.(i) > heights.(!best))
        then begin
          let o = deps.ops.(i) in
          let feasible =
            if is_icm (Op.id o) then
              List.for_all (fun l -> link_slots.(l) > 0) (links_of (Op.id o))
            else
              let c = A.cluster_of assign ~op_id:(Op.id o) in
              let k = M.fu_kind_index (Op.fu_kind o) in
              fu_slots.(c).(k) > 0
          in
          if feasible then best := i
        end
      done;
      if !best >= 0 then begin
        let i = !best in
        let o = deps.ops.(i) in
        let cluster =
          if is_icm (Op.id o) then begin
            List.iter
              (fun l -> link_slots.(l) <- link_slots.(l) - 1)
              (links_of (Op.id o));
            None
          end
          else begin
            let c = A.cluster_of assign ~op_id:(Op.id o) in
            let k = M.fu_kind_index (Op.fu_kind o) in
            fu_slots.(c).(k) <- fu_slots.(c).(k) - 1;
            Some c
          end
        in
        issue.(i) <- !cycle;
        let hops = List.length (links_of (Op.id o)) in
        order :=
          (Op.id o, !cycle, cluster, ready_at.(i), lat_of o, hops) :: !order;
        decr remaining;
        List.iter
          (fun (j, lat) ->
            unscheduled_preds.(j) <- unscheduled_preds.(j) - 1;
            ready_at.(j) <- max ready_at.(j) (!cycle + lat))
          deps.succs.(i);
        progressed := true
      end
    done;
    if !remaining > 0 then incr cycle
  done;
  let drain = ref (issue.(n - 1) + 1) in
  for i = 0 to n - 1 do
    let op = deps.ops.(i) in
    if List.exists (fun r -> Reg.Set.mem r live_out) (Op.defs op) then
      drain := max !drain (issue.(i) + lat_of op)
  done;
  (List.rev !order, !drain)
