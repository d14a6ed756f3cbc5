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

    In each cycle the scheduler repeatedly issues the ready op with the
    greatest height, ties going to the lowest index, among the ops whose
    FU slot or route links are free.  Ready ops sit in one binary heap
    per (cluster, FU kind) and one for moves; a heap whose slots are
    used up is passed over for the rest of the cycle, and a move whose
    links are busy is set aside until the next one.  Ops whose operands
    arrive in a later cycle wait in a heap keyed by that cycle, so a
    cycle with nothing ready is skipped.  Each op's slot class and route
    pair are found once, so the issue loop does no hash-table lookup and
    never rescans the block.  An op on a cluster with no unit of its
    kind could never issue: the scheduler raises [Invalid_argument]
    naming it.

    Its schedules, one per block of a clustered program
    ([Schedule]), are what the performance model weights (cycles = block
    length x execution count) and what the cycle-level simulator
    [Vliw_sim] executes. *)

open Vliw_ir

type entry = {
  op : Op.t;
  cycle : int;
  cluster : int option;  (** [None] for an intercluster move *)
  ready : int;  (** the cycle its last operand arrived *)
  lat : int;  (** route latency for a move, op latency otherwise *)
  hops : int;  (** links a move crosses; 0 for any other op *)
}

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

(* Op [i] of a block as the scheduler sees it: its slot class, the
   index [c * fu_kind_count + k] of its cluster and FU kind, or [moves]
   for an intercluster move, whose route pair is [pair.(i)]. *)
type classes = { cls : int array; pair : int array; moves : int }

let classify ~(machine : Vliw_machine.t) ~(assign : Assignment.t)
    ~(move_routes : (int, int * int) Hashtbl.t) (deps : Deps.t) =
  let nk = Vliw_machine.fu_kind_count in
  let moves = Vliw_machine.num_clusters machine * nk in
  let n = Deps.num_ops deps in
  let cls = Array.make n moves and pair = Array.make n (-1) in
  for i = 0 to n - 1 do
    let o = Deps.op deps i in
    match Hashtbl.find_opt move_routes (Op.id o) with
    | Some (src, dst) ->
        pair.(i) <- Vliw_machine.route_pair machine ~src ~dst
    | None ->
        let c = Assignment.cluster_of assign ~op_id:(Op.id o) in
        let kind = Op.fu_kind o in
        if Vliw_machine.fu_count (Vliw_machine.cluster_of machine c) kind = 0
        then
          invalid_arg
            (Fmt.str "List_sched: op %d on cluster %d, which has no %s unit"
               (Op.id o) c
               (Vliw_machine.fu_kind_name kind));
        cls.(i) <- (c * nk) + Vliw_machine.fu_kind_index kind
  done;
  { cls; pair; moves }

(* Binary heaps of op indices stored side by side in one array: heap
   [h] holds its [len.(h)] members from [off.(h)] on, and [prio] puts
   the better member on top. *)
type heaps = { a : int array; off : int array; len : int array }

let heaps_make sizes =
  let nh = Array.length sizes in
  let off = Array.make (nh + 1) 0 in
  for h = 0 to nh - 1 do
    off.(h + 1) <- off.(h) + sizes.(h)
  done;
  { a = Array.make (max 1 off.(nh)) 0; off; len = Array.make nh 0 }

let top hs h = hs.a.(hs.off.(h))

let push prio hs h x =
  let base = hs.off.(h) in
  let i = ref hs.len.(h) in
  hs.len.(h) <- !i + 1;
  while !i > 0 && prio x hs.a.(base + ((!i - 1) / 2)) do
    hs.a.(base + !i) <- hs.a.(base + ((!i - 1) / 2));
    i := (!i - 1) / 2
  done;
  hs.a.(base + !i) <- x

let pop prio hs h =
  let base = hs.off.(h) in
  let x = hs.a.(base) in
  let n = hs.len.(h) - 1 in
  hs.len.(h) <- n;
  if n > 0 then begin
    let last = hs.a.(base + n) in
    let i = ref 0 and go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      if l >= n then go := false
      else begin
        let c =
          if l + 1 < n && prio hs.a.(base + l + 1) hs.a.(base + l) then l + 1
          else l
        in
        if prio hs.a.(base + c) last then begin
          hs.a.(base + !i) <- hs.a.(base + c);
          i := c
        end
        else go := false
      end
    done;
    hs.a.(base + !i) <- last
  end;
  x

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
  let lat_of = latency_of ~machine ~move_routes in
  let deps = Deps.build ~objects_of ~latency_of:lat_of ~machine block in
  let n = Deps.num_ops deps in
  let heights = Deps.heights deps in
  let { cls; pair; moves } = classify ~machine ~assign ~move_routes deps in
  let { Vliw_machine.link_off; links; hops } = machine.Vliw_machine.routes in
  (* free FU slots per class in the current cycle, and free issue slots
     per interconnect link (the bus is the single link 0) *)
  let nk = Vliw_machine.fu_kind_count in
  let caps =
    Array.init moves (fun x ->
        let c = Vliw_machine.cluster_of machine (x / nk) in
        c.Vliw_machine.fu_counts.(x mod nk))
  in
  let slots = Array.copy caps in
  let mpc = Vliw_machine.moves_per_cycle machine in
  let link_slots = Array.make (Vliw_machine.num_link_slots machine) mpc in
  let links_free i =
    let p = pair.(i) and ok = ref true in
    for k = link_off.(p) to link_off.(p + 1) - 1 do
      if link_slots.(links.(k)) <= 0 then ok := false
    done;
    !ok
  in
  (* ready ops, one heap per class, the greatest height on top and the
     lowest index among equals; [blocked] holds the moves found unable
     to issue this cycle *)
  let better i j =
    heights.(i) > heights.(j) || (heights.(i) = heights.(j) && i < j)
  in
  let sizes = Array.make (moves + 1) 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) cls;
  let ready = heaps_make sizes in
  let blocked = Array.make (max 1 sizes.(moves)) 0 and nblocked = ref 0 in
  (* ops whose operands arrive in a later cycle, the earliest on top *)
  let ready_at = Array.make n 0 in
  let waiting = heaps_make [| n |] in
  let earlier i j = ready_at.(i) < ready_at.(j) in
  let unscheduled_preds =
    Array.init n (fun i -> deps.Deps.pred_off.(i + 1) - deps.Deps.pred_off.(i))
  in
  for i = 0 to n - 1 do
    if unscheduled_preds.(i) = 0 then push better ready cls.(i) i
  done;
  let issue = Array.make n (-1) in
  let entries =
    Array.make n
      {
        op = Deps.op deps 0;
        cycle = 0;
        cluster = None;
        ready = 0;
        lat = 0;
        hops = 0;
      }
  in
  let count = ref 0 in
  let cycle = ref 0 in
  let issue_op i =
    let move = cls.(i) = moves in
    if move then begin
      let p = pair.(i) in
      for k = link_off.(p) to link_off.(p + 1) - 1 do
        link_slots.(links.(k)) <- link_slots.(links.(k)) - 1
      done
    end
    else slots.(cls.(i)) <- slots.(cls.(i)) - 1;
    issue.(i) <- !cycle;
    entries.(!count) <-
      {
        op = Deps.op deps i;
        cycle = !cycle;
        cluster = (if move then None else Some (cls.(i) / nk));
        ready = ready_at.(i);
        lat = Deps.op_latency deps i;
        hops = (if move then hops.(pair.(i)) else 0);
      };
    incr count;
    for k = deps.Deps.succ_off.(i) to deps.Deps.succ_off.(i + 1) - 1 do
      let j = deps.Deps.succ_node.(k) in
      unscheduled_preds.(j) <- unscheduled_preds.(j) - 1;
      ready_at.(j) <- max ready_at.(j) (!cycle + deps.Deps.succ_lat.(k));
      if unscheduled_preds.(j) = 0 then
        if ready_at.(j) <= !cycle then push better ready cls.(j) j
        else push earlier waiting 0 j
    done
  in
  (* The best ready op that can issue now, or -1. *)
  let best_feasible () =
    let b = ref (-1) in
    for c = 0 to moves - 1 do
      if ready.len.(c) > 0 && slots.(c) > 0 then begin
        let i = top ready c in
        if !b < 0 || better i !b then b := i
      end
    done;
    while ready.len.(moves) > 0 && not (links_free (top ready moves)) do
      blocked.(!nblocked) <- pop better ready moves;
      incr nblocked
    done;
    if ready.len.(moves) > 0 then begin
      let i = top ready moves in
      if !b < 0 || better i !b then b := i
    end;
    !b
  in
  (* The best ready op whatever its resources, when it is blocked. *)
  let best_blocked b =
    let b = ref b in
    for c = 0 to moves - 1 do
      if ready.len.(c) > 0 && slots.(c) <= 0 then begin
        let i = top ready c in
        if !b < 0 || better i !b then b := i
      end
    done;
    for k = 0 to !nblocked - 1 do
      if !b < 0 || better blocked.(k) !b then b := blocked.(k)
    done;
    !b
  in
  while !count < n do
    Array.blit caps 0 slots 0 moves;
    Array.fill link_slots 0 (Array.length link_slots) mpc;
    while waiting.len.(0) > 0 && ready_at.(top waiting 0) <= !cycle do
      let i = pop earlier waiting 0 in
      push better ready cls.(i) i
    done;
    for k = 0 to !nblocked - 1 do
      push better ready moves blocked.(k)
    done;
    nblocked := 0;
    let go = ref true in
    while !go do
      let b = best_feasible () in
      (* fault injection: issue the best ready op despite an exhausted
         slot — the capacity violation must be caught by the
         simulator's per-cycle resource check *)
      let i =
        if Fault.armed () then
          let a = best_blocked b in
          if a <> b && Fault.fire "sched.overbook" then a else b
        else b
      in
      if i < 0 then go := false
      else begin
        (* [i] tops its heap, unless it is an overbooked move set aside
           in [blocked] *)
        if cls.(i) <> moves || i = b then ignore (pop better ready cls.(i))
        else begin
          let k = ref 0 in
          while blocked.(!k) <> i do
            incr k
          done;
          decr nblocked;
          blocked.(!k) <- blocked.(!nblocked)
        end;
        issue_op i
      end
    done;
    if !count < n then
      if !nblocked > 0 || Array.exists (fun l -> l > 0) ready.len then
        incr cycle
      else cycle := ready_at.(top waiting 0)
  done;
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
      drain := max !drain (issue.(i) + Deps.op_latency deps i)
  done;
  { entries; length = !drain }

(** Lower bounds used in tests: a valid schedule can never beat the
    resource bound or the (live-out-drain) critical path.  A placement
    on a cluster without a unit of the op's kind has no schedule; its
    resource term is left out rather than divided by zero. *)
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
    for k = deps.Deps.pred_off.(i) to deps.Deps.pred_off.(i + 1) - 1 do
      let p = deps.Deps.pred_node.(k) in
      level.(i) <- max level.(i) (level.(p) + deps.Deps.pred_lat.(k))
    done;
    let op = Deps.op deps i in
    let tail =
      if List.exists (fun r -> Reg.Set.mem r live_out) (Op.defs op) then
        Deps.op_latency deps i
      else 1
    in
    cp := max !cp (level.(i) + tail)
  done;
  let cp = !cp in
  let num_clusters = Vliw_machine.num_clusters machine in
  let usage =
    Array.init num_clusters (fun _ -> Array.make Vliw_machine.fu_kind_count 0)
  in
  let { Vliw_machine.link_off; links; _ } = machine.Vliw_machine.routes in
  let link_usage = Array.make (Vliw_machine.num_link_slots machine) 0 in
  List.iter
    (fun op ->
      match Hashtbl.find_opt move_routes (Op.id op) with
      | Some (src, dst) ->
          let p = Vliw_machine.route_pair machine ~src ~dst in
          for k = link_off.(p) to link_off.(p + 1) - 1 do
            link_usage.(links.(k)) <- link_usage.(links.(k)) + 1
          done
      | None ->
          let c = Assignment.cluster_of assign ~op_id:(Op.id op) in
          let k = Vliw_machine.fu_kind_index (Op.fu_kind op) in
          usage.(c).(k) <- usage.(c).(k) + 1)
    (Block.ops block);
  let res_bound = ref 0 in
  for c = 0 to num_clusters - 1 do
    let counts = (Vliw_machine.cluster_of machine c).Vliw_machine.fu_counts in
    for k = 0 to Vliw_machine.fu_kind_count - 1 do
      let cap = counts.(k) in
      if usage.(c).(k) > 0 && cap > 0 then
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
