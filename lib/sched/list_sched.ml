(** Cluster-aware list scheduler.

    Schedules one basic block of a clustered program (moves already
    inserted) onto the machine:

    - each non-move operation needs one slot of its function-unit kind on
      its assigned cluster in its issue cycle (units are fully
      pipelined);
    - each intercluster [Move] needs, in its issue cycle, one issue slot
      on every link of its route through the interconnect
      ([Vliw_machine.route_links]) and completes
      [route_latency = hops * move_latency] cycles later (links are
      pipelined with [moves_per_cycle] issue bandwidth each).  On the
      paper's bus topology the route is the single shared bus and this
      degenerates to the original model: one bus slot, [move_latency]
      cycles;
    - dependences come from [Deps]; priorities are critical-path heights;
    - the terminator issues last (it has lat-0 edges from every op); the
      schedule length uses drain semantics: the block ends once the
      branch has issued and every in-flight result has committed.

    Its schedules, one per block of a clustered program
    ([Schedule]), are what the performance model weights (cycles = block
    length x execution count) and what the cycle-level simulator
    [Vliw_sim] executes. *)

open Vliw_ir

type entry = { op : Op.t; cycle : int; cluster : int option }
(** [cluster = None] for bus moves *)

type t = {
  entries : entry array;  (** in issue order (cycle, then priority) *)
  length : int;
}

let length s = s.length
let entries s = s.entries

(** Latency function accounting for intercluster moves: a move routed
    from cluster [src] to [dst] takes [route_latency] (distance-aware;
    the plain [move_latency] on the bus). *)
let latency_of ~(machine : Vliw_machine.t)
    ~(move_routes : (int, int * int) Hashtbl.t) op =
  match Hashtbl.find_opt move_routes (Op.id op) with
  | Some (src, dst) -> Vliw_machine.route_latency machine ~src ~dst
  | None -> Op.latency machine.Vliw_machine.latencies op

let schedule_block ~(machine : Vliw_machine.t) ~(assign : Assignment.t)
    ~(move_routes : (int, int * int) Hashtbl.t)
    ?(objects_of = fun _ -> Data.Obj_set.empty)
    ?(live_out = Reg.Set.empty) (block : Block.t) : t =
  let args =
    if Telemetry.is_enabled () then
      [ ("label", Label.to_string (Block.label block)) ]
    else []
  in
  Telemetry.with_span "schedule-block" ~args @@ fun () ->
  Telemetry.incr "sched.blocks_scheduled";
  let is_icm op_id = Hashtbl.mem move_routes op_id in
  let lat_of = latency_of ~machine ~move_routes in
  let links_of op_id =
    match Hashtbl.find_opt move_routes op_id with
    | Some (src, dst) -> Vliw_machine.route_links machine ~src ~dst
    | None -> []
  in
  let deps = Deps.build ~objects_of ~latency_of:lat_of ~machine block in
  let n = Deps.num_ops deps in
  let heights = Deps.heights deps in
  let issue = Array.make n (-1) in
  let unscheduled_preds = Array.make n 0 in
  let ready_at = Array.make n 0 in
  for i = 0 to n - 1 do
    unscheduled_preds.(i) <- List.length (Deps.preds deps i)
  done;
  let num_clusters = Vliw_machine.num_clusters machine in
  let fu_slots =
    (* slots.(cluster).(fu kind) available in the current cycle *)
    Array.init num_clusters (fun c ->
        Array.init Vliw_machine.fu_kind_count (fun k ->
            Vliw_machine.fu_count
              (Vliw_machine.cluster_of machine c)
              (List.nth Vliw_machine.all_fu_kinds k)))
  in
  let reset_slots slots =
    for c = 0 to num_clusters - 1 do
      for k = 0 to Vliw_machine.fu_kind_count - 1 do
        slots.(c).(k) <-
          Vliw_machine.fu_count
            (Vliw_machine.cluster_of machine c)
            (List.nth Vliw_machine.all_fu_kinds k)
      done
    done
  in
  let remaining = ref n in
  let cycle = ref 0 in
  let scheduled_order = ref [] in
  (* per-cycle issue slots per interconnect link (the bus is the single
     link 0, so this is exactly the old scalar bus counter there) *)
  let nlinks = Vliw_machine.num_link_slots machine in
  let link_slots = Array.make nlinks 0 in
  while !remaining > 0 do
    reset_slots fu_slots;
    Array.fill link_slots 0 nlinks (Vliw_machine.moves_per_cycle machine);
    (* candidates ready this cycle, highest priority first *)
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
          (* check resources *)
          let o = Deps.op deps i in
          let feasible =
            if is_icm (Op.id o) then
              (* the move must win a slot on every link of its route in
                 its issue cycle; a busy link anywhere along the path
                 makes it wait (the contention the queuing model and
                 attribution's transfer_wait category surface) *)
              List.for_all (fun l -> link_slots.(l) > 0) (links_of (Op.id o))
            else
              let c = Assignment.cluster_of assign ~op_id:(Op.id o) in
              let k = Vliw_machine.fu_kind_index (Op.fu_kind o) in
              fu_slots.(c).(k) > 0
          in
          (* fault injection: issue despite an exhausted slot — the
             capacity violation must be caught by the simulator's
             per-cycle resource check *)
          let feasible =
            feasible || ((not feasible) && Fault.fire "sched.overbook")
          in
          if feasible then best := i
        end
      done;
      if !best >= 0 then begin
        let i = !best in
        let o = Deps.op deps i in
        let cluster =
          if is_icm (Op.id o) then begin
            List.iter
              (fun l -> link_slots.(l) <- link_slots.(l) - 1)
              (links_of (Op.id o));
            None
          end
          else begin
            let c = Assignment.cluster_of assign ~op_id:(Op.id o) in
            let k = Vliw_machine.fu_kind_index (Op.fu_kind o) in
            fu_slots.(c).(k) <- fu_slots.(c).(k) - 1;
            Some c
          end
        in
        issue.(i) <- !cycle;
        scheduled_order := { op = o; cycle = !cycle; cluster } :: !scheduled_order;
        decr remaining;
        List.iter
          (fun (j, lat) ->
            unscheduled_preds.(j) <- unscheduled_preds.(j) - 1;
            ready_at.(j) <- max ready_at.(j) (!cycle + lat))
          (Deps.succs deps i);
        progressed := true
      end
    done;
    if !remaining > 0 then incr cycle
  done;
  let entries = Array.of_list (List.rev !scheduled_order) in
  (* live-out drain semantics: the block ends when the branch has issued
     and every in-flight result that a later block consumes has
     committed.  Values dead at block exit may still be in flight — the
     hardware overlaps them with the next block — but live-out values
     (loop-carried recurrences, cross-block intercluster moves) are paid
     for.  See DESIGN.md on cross-block latency handling. *)
  let drain = ref (issue.(n - 1) + 1) in
  for i = 0 to n - 1 do
    let op = Deps.op deps i in
    if List.exists (fun r -> Reg.Set.mem r live_out) (Op.defs op) then
      drain := max !drain (issue.(i) + lat_of op)
  done;
  { entries; length = !drain }

(** Lower bounds used in tests: a valid schedule can never beat the
    resource bound or the (live-out-drain) critical path. *)
let lower_bound ~(machine : Vliw_machine.t) ~(assign : Assignment.t)
    ~(move_routes : (int, int * int) Hashtbl.t)
    ?(objects_of = fun _ -> Data.Obj_set.empty)
    ?(live_out = Reg.Set.empty) (block : Block.t) : int =
  let lat_of = latency_of ~machine ~move_routes in
  let deps = Deps.build ~objects_of ~latency_of:lat_of ~machine block in
  (* earliest issue times; completion only counts for live-out defs,
     matching the scheduler's drain rule *)
  let n = Deps.num_ops deps in
  let level = Array.make n 0 in
  let cp = ref 0 in
  for i = 0 to n - 1 do
    List.iter
      (fun (p, lat) -> level.(i) <- max level.(i) (level.(p) + lat))
      (Deps.preds deps i);
    let op = Deps.op deps i in
    let tail =
      if List.exists (fun r -> Reg.Set.mem r live_out) (Op.defs op) then
        lat_of op
      else 1
    in
    cp := max !cp (level.(i) + tail)
  done;
  let cp = !cp in
  let num_clusters = Vliw_machine.num_clusters machine in
  let usage =
    Array.init num_clusters (fun _ -> Array.make Vliw_machine.fu_kind_count 0)
  in
  let nlinks = Vliw_machine.num_link_slots machine in
  let link_usage = Array.make nlinks 0 in
  List.iter
    (fun op ->
      match Hashtbl.find_opt move_routes (Op.id op) with
      | Some (src, dst) ->
          List.iter
            (fun l -> link_usage.(l) <- link_usage.(l) + 1)
            (Vliw_machine.route_links machine ~src ~dst)
      | None ->
          let c = Assignment.cluster_of assign ~op_id:(Op.id op) in
          let k = Vliw_machine.fu_kind_index (Op.fu_kind op) in
          usage.(c).(k) <- usage.(c).(k) + 1)
    (Block.ops block);
  let res_bound = ref 0 in
  for c = 0 to num_clusters - 1 do
    for k = 0 to Vliw_machine.fu_kind_count - 1 do
      let cap =
        Vliw_machine.fu_count
          (Vliw_machine.cluster_of machine c)
          (List.nth Vliw_machine.all_fu_kinds k)
      in
      if usage.(c).(k) > 0 then
        res_bound := max !res_bound ((usage.(c).(k) + cap - 1) / cap)
    done
  done;
  let bus_bound = ref 0 in
  let mpc = Vliw_machine.moves_per_cycle machine in
  Array.iter
    (fun u -> if u > 0 then bus_bound := max !bus_bound ((u + mpc - 1) / mpc))
    link_usage;
  max cp (max !res_bound !bus_bound)

let pp ppf s =
  Fmt.pf ppf "@[<v>schedule (%d cycles):@," s.length;
  Array.iter
    (fun e ->
      Fmt.pf ppf "  %3d %s %a@," e.cycle
        (match e.cluster with
        | Some c -> Fmt.str "c%d " c
        | None -> "bus")
        Op.pp e.op)
    s.entries;
  Fmt.pf ppf "@]"
