(** Schedule-length estimation for RHOP (paper Section 3.4).

    RHOP's defining feature is steering cluster assignment with cheap
    schedule estimates instead of running the scheduler.  For a candidate
    cluster assignment of one block the estimate combines:

    - a resource bound: per cluster, ops of each FU kind divided by the
      unit count, and intercluster moves charged per link of their
      route against per-link bandwidth (on the bus: total moves over
      bus bandwidth, the seed model);
    - a dependence bound: the critical path where every cut register-flow
      edge is stretched by the route latency between the two clusters
      (hops times move latency — plain move latency on the bus);
    - a cross-block term: uses of values homed on another cluster (and
      loop-carried couplings) will force a move in the producer block;
      they are charged [xmove_weight] cycles each, additively.

    The final cost is lexicographic-ish: [10_000 * (bound + xmove term)
    + 100 * (graded resource term + link bound) + in-block move count],
    so the graded term and then the move count break ties.

    [cost] computes the estimate from scratch and is its definition.
    RHOP prices candidate moves incrementally instead, once per
    candidate cluster of every group: [load] builds every term of the
    estimate for one assignment, [move] changes a group's cluster and
    updates only the terms its ops take part in, and [current] reads
    the cost, always the integer [cost] would return for the tracked
    assignment.  [price] reads it against the best cost so far: every
    term but the dependence bound is already current after a move, so
    two lower bounds on that one term, and a relevel that stops once
    the cost cannot come in below [best], reject most candidates
    without settling their levels.  The graph is precomputed into flat
    arrays and the state allocated at [make] time, so [move], [current]
    and [price] allocate nothing.  A [t] is single-threaded, like the
    RHOP pass that owns it. *)

module M = Vliw_machine
module D = Vliw_sched.Deps

(* A multiset of small non-negative ints with a pointer to its largest
   member (0 when empty).  Only removing the last copy of the maximum
   costs more than O(1): the pointer scans down to the next member. *)
type hist = { count : int array; mutable top : int }

let hist_make size = { count = Array.make (max size 1) 0; top = 0 }

let hist_clear h =
  Array.fill h.count 0 (Array.length h.count) 0;
  h.top <- 0

let hist_add h v =
  h.count.(v) <- h.count.(v) + 1;
  if v > h.top then h.top <- v

let hist_remove h v =
  let c = h.count.(v) - 1 in
  h.count.(v) <- c;
  if c = 0 && v = h.top then
    while h.top > 0 && h.count.(h.top) = 0 do
      h.top <- h.top - 1
    done

(* Replace one [old] by [v]; adding first stops the scan of
   [hist_remove] at [v] at the latest. *)
let hist_replace h ~old v =
  if v <> old then begin
    hist_add h v;
    hist_remove h old
  end

(* A node's part in one cross-block term: the use pinned to a home
   cluster, or the use or the def of a loop-carried coupling. *)
type xterm = Pin | Coupled_use | Coupled_def

type t = {
  nclusters : int;
  move_latency : int;
  moves_per_cycle : int;
  (* interconnect geometry from the machine's route table, per ordered
     cluster pair [(a * nclusters) + b]: hop distance, and the route's
     link ids in CSR form (the per-link resource bound walks them) *)
  hops : int array;
  route_off : int array;
  route_link : int array;
  nlink_slots : int;
  n : int;
  fu_of : int array;  (** FU kind index per node *)
  tail : int array;
      (** what a node adds to the block's length after its issue: its
          full latency when it defines a live-out value (live-out drain,
          like [List_sched]), else the one issue cycle *)
  caps : int array;  (** FU count per (cluster, kind), [c * nk + k] *)
  (* the graph's CSR arrays, shared with [Deps]; entry [j] of node
     [i]'s predecessor row is [pred_node.(j)] at latency [pred_lat.(j)],
     flagged in [pred_flow] when a register flow edge joins the pair
     (the only kind stretched by cut-crossing) *)
  pred_off : int array;
  pred_node : int array;
  pred_lat : int array;
  pred_flow : bool array;
  (* successor rows run from [succ_off.(i)] to [succ_end.(i) - 1]:
     [Deps] ends every row but [sink]'s with the edge into [sink],
     which [succ_end] leaves out *)
  succ_off : int array;
  succ_end : int array;
  succ_node : int array;
  succ_lat : int array;
  succ_flow : bool array;
  (* flow edges as parallel endpoint arrays, producer/consumer *)
  fe_d : int array;
  fe_u : int array;
  pin_node : int array;  (** node with a live-in value pinned elsewhere *)
  pin_home : int array;  (** home cluster of that value *)
  coup_u : int array;  (** loop-carried same-register pairs: use, ... *)
  coup_d : int array;  (** ... def *)
  (* each node's cross-block terms in CSR form: [x_arg] is a pin's home
     cluster, or the other node of a coupling *)
  x_off : int array;
  x_kind : xterm array;
  x_arg : int array;
  xmove_weight : int;
  sink : int;
      (** the last node; [Deps] gives it an edge from every other node,
          so its level is kept as the maximum of its in-edge
          contributions instead of being recomputed from all of them *)
  sink_lat : int array;  (** latency of a node's edge into [sink], or -1 *)
  sink_flow : bool array;
  (* dependence lengths with no edge stretched, which no assignment
     shortens: *)
  up : int array;  (** longest path from the block's start to the issue *)
  down : int array;
      (** longest path from the issue to the block's end, the tail of
          its last node included *)
  path_floor : int;  (** the unstretched critical path: max [up + tail] *)
  (* the incremental state, for the assignment [cluster] given to
     [load]: *)
  mutable cluster : int array;
  usage : int array;  (** ops per (cluster, kind), [c * nk + k] *)
  res_hist : hist array;
      (** per kind, of [ceil (usage / cap)] over the clusters with
          units of that kind *)
  res_over : int array;
      (** per kind, clusters with no unit of it that hold ops of it *)
  refs : int array;
      (** flow-edge predecessor entries from producer [d] into consumers
          on cluster [c], at [(d * nclusters) + c]; the pair is one
          in-block move while its count is positive and [c] is not [d]'s
          cluster *)
  cons : int array;
      (** producer [d]'s consumer clusters, those with a positive
          [refs] count, at [(d * nclusters) + j] for [j < cons_len.(d)] *)
  cons_len : int array;
  mutable moves : int;
  link_usage : int array;  (** moves routed over each link *)
  link_hist : hist;  (** of [link_usage] *)
  mutable xmoves : int;
  level : int array;
  dep_hist : hist;  (** of [level + tail] over all nodes *)
  sink_in : int array;  (** a node's contribution to [sink]'s level *)
  sink_hist : hist;  (** of [sink_in] over [sink]'s predecessors *)
  dirty : bool array;  (** nodes whose level may be stale *)
  mutable dirty_lo : int;
  mutable dirty_hi : int;
  mutable sink_moved : bool;
  lb : int array;  (** [group_dep]'s level bound per op *)
  mark : int array;
      (** the ops [move] moves, or those [group_dep] has bounded: where
          this equals [stamp], which each call advances *)
  mutable stamp : int;
  mutable relevels : int;
  mutable pruned : int;
}

(* CSR offsets from per-row counts. *)
let offsets counts =
  let n = Array.length counts in
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + counts.(i)
  done;
  off

let make ~machine ~deps ~pins ~couplings ~live_out ~xmove_weight =
  let n = D.num_ops deps in
  let nclusters = M.num_clusters machine in
  let nk = M.fu_kind_count in
  let fu_of =
    Array.init n (fun i -> M.fu_kind_index (Vliw_ir.Op.fu_kind (D.op deps i)))
  in
  let tail =
    Array.init n (fun i ->
        if
          List.exists
            (fun r -> Vliw_ir.Reg.Set.mem r live_out)
            (Vliw_ir.Op.defs (D.op deps i))
        then D.op_latency deps i
        else 1)
  in
  let caps = Array.make (nclusters * nk) 0 in
  for c = 0 to nclusters - 1 do
    List.iter
      (fun k ->
        caps.((c * nk) + M.fu_kind_index k) <-
          M.fu_count (M.cluster_of machine c) k)
      M.all_fu_kinds
  done;
  let fe_d = deps.D.flow_def and fe_u = deps.D.flow_use in
  let nfe = Array.length fe_d in
  let pred_off = deps.D.pred_off and pred_node = deps.D.pred_node in
  let pred_lat = deps.D.pred_lat and pred_flow = deps.D.pred_flow in
  let succ_off = deps.D.succ_off and succ_node = deps.D.succ_node in
  let succ_lat = deps.D.succ_lat and succ_flow = deps.D.succ_flow in
  let sink = n - 1 in
  let succ_end =
    Array.init n (fun i -> max succ_off.(i) (succ_off.(i + 1) - 1))
  in
  let sink_lat = Array.make n (-1) and sink_flow = Array.make n false in
  for i = 0 to sink - 1 do
    sink_lat.(i) <- succ_lat.(succ_end.(i));
    sink_flow.(i) <- succ_flow.(succ_end.(i))
  done;
  let up = Array.make (max n 1) 0 and down = Array.make (max n 1) 0 in
  let path_floor = ref 0 in
  for i = 0 to n - 1 do
    for j = pred_off.(i) to pred_off.(i + 1) - 1 do
      up.(i) <- max up.(i) (up.(pred_node.(j)) + pred_lat.(j))
    done;
    path_floor := max !path_floor (up.(i) + tail.(i))
  done;
  for i = n - 1 downto 0 do
    let d = ref tail.(i) in
    for j = succ_off.(i) to succ_end.(i) - 1 do
      d := max !d (succ_lat.(j) + down.(succ_node.(j)))
    done;
    if sink_lat.(i) >= 0 then d := max !d (sink_lat.(i) + down.(sink));
    down.(i) <- !d
  done;
  let pin_node = Array.of_list (List.map fst pins)
  and pin_home = Array.of_list (List.map snd pins) in
  let coup_u = Array.of_list (List.map fst couplings)
  and coup_d = Array.of_list (List.map snd couplings) in
  let x_count = Array.make n 0 in
  let bump i = x_count.(i) <- x_count.(i) + 1 in
  Array.iter bump pin_node;
  Array.iter bump coup_u;
  Array.iter bump coup_d;
  let x_off = offsets x_count in
  let x_kind = Array.make x_off.(n) Pin and x_arg = Array.make x_off.(n) 0 in
  Array.fill x_count 0 n 0;
  let add i kind arg =
    let j = x_off.(i) + x_count.(i) in
    x_kind.(j) <- kind;
    x_arg.(j) <- arg;
    bump i
  in
  Array.iteri (fun k i -> add i Pin pin_home.(k)) pin_node;
  Array.iteri (fun k u -> add u Coupled_use coup_d.(k)) coup_u;
  Array.iteri (fun k d -> add d Coupled_def coup_u.(k)) coup_d;
  let { M.hops; link_off = route_off; links = route_link } =
    machine.M.routes
  in
  let nlink_slots = M.num_link_slots machine in
  let move_latency = M.move_latency machine in
  (* Size the level histograms by the longest path with every flow edge
     stretched over the longest route, which no assignment exceeds. *)
  let stretch = move_latency * Array.fold_left max 0 hops in
  let level = Array.make (max n 1) 0 in
  let dep_size = ref 0 in
  for i = 0 to n - 1 do
    for j = pred_off.(i) to pred_off.(i + 1) - 1 do
      let l =
        level.(pred_node.(j)) + pred_lat.(j)
        + if pred_flow.(j) then stretch else 0
      in
      if l > level.(i) then level.(i) <- l
    done;
    dep_size := max !dep_size (level.(i) + tail.(i))
  done;
  {
    nclusters;
    move_latency;
    moves_per_cycle = M.moves_per_cycle machine;
    hops;
    route_off;
    route_link;
    nlink_slots;
    n;
    fu_of;
    tail;
    caps;
    pred_off;
    pred_node;
    pred_lat;
    pred_flow;
    succ_off;
    succ_end;
    succ_node;
    succ_lat;
    succ_flow;
    fe_d;
    fe_u;
    pin_node;
    pin_home;
    coup_u;
    coup_d;
    x_off;
    x_kind;
    x_arg;
    xmove_weight;
    sink;
    sink_lat;
    sink_flow;
    up;
    down;
    path_floor = !path_floor;
    cluster = [||];
    usage = Array.make (nclusters * nk) 0;
    res_hist = Array.init nk (fun _ -> hist_make (n + 1));
    res_over = Array.make nk 0;
    refs = Array.make (max (n * nclusters) 1) 0;
    cons = Array.make (max (n * nclusters) 1) 0;
    cons_len = Array.make (max n 1) 0;
    moves = 0;
    link_usage = Array.make nlink_slots 0;
    link_hist = hist_make (nfe + 1);
    xmoves = 0;
    level;
    dep_hist = hist_make (!dep_size + 1);
    sink_in = Array.make (max n 1) 0;
    sink_hist = hist_make (if n > 0 then level.(sink) + 1 else 1);
    dirty = Array.make (max n 1) false;
    dirty_lo = n;
    dirty_hi = -1;
    sink_moved = false;
    lb = Array.make (max n 1) 0;
    mark = Array.make (max n 1) 0;
    stamp = 0;
    relevels = 0;
    pruned = 0;
  }

(* ------------------------------------------------------------------ *)
(* Terms shared by [cost] and the incremental state                    *)

(* Ops per (cluster, kind) under [cluster], into [usage]. *)
let count_usage t (cluster : int array) usage =
  let nk = M.fu_kind_count in
  Array.fill usage 0 (Array.length usage) 0;
  for i = 0 to t.n - 1 do
    let idx = (cluster.(i) * nk) + t.fu_of.(i) in
    usage.(idx) <- usage.(idx) + 1
  done

(* Dependence level of node [i]: its latest predecessor's level plus
   the edge latency, cut flow edges stretched by the route latency. *)
let level_of t (cluster : int array) (level : int array) i =
  let ci = cluster.(i) in
  let li = ref 0 in
  for j = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
    let p = t.pred_node.(j) in
    let cp = cluster.(p) in
    let eff =
      if t.pred_flow.(j) && cp <> ci then
        t.pred_lat.(j) + (t.move_latency * t.hops.((cp * t.nclusters) + ci))
      else t.pred_lat.(j)
    in
    if level.(p) + eff > !li then li := level.(p) + eff
  done;
  !li

(* Cross-block move pressure, distance-weighted: a use pinned (or
   coupled) h hops away costs h times a neighbouring one. *)
let cross_block t (cluster : int array) =
  let xmoves = ref 0 in
  for i = 0 to Array.length t.pin_node - 1 do
    let c = cluster.(t.pin_node.(i)) in
    let h = t.pin_home.(i) in
    if c <> h then xmoves := !xmoves + t.hops.((h * t.nclusters) + c)
  done;
  for i = 0 to Array.length t.coup_u - 1 do
    let cu = cluster.(t.coup_u.(i)) and cd = cluster.(t.coup_d.(i)) in
    if cu <> cd then xmoves := !xmoves + t.hops.((cd * t.nclusters) + cu)
  done;
  !xmoves

(* The estimate from its terms: ops per (cluster, kind) in [usage], the
   busiest link's usage, the dependence bound, the cross-block hops and
   the in-block moves. *)
let combine t usage ~link_max ~dep ~xmoves ~moves =
  let nk = M.fu_kind_count in
  (* resource bound, and [graded]: per-FU-kind worst-cluster pressure,
     summed.  Unlike the max bound it decreases a little with every op
     moved off the binding cluster, giving hill-climbing refinement a
     gradient across the plateaus of the max. *)
  let res = ref 0 and graded = ref 0 in
  for k = 0 to nk - 1 do
    let worst = ref 0 in
    for c = 0 to t.nclusters - 1 do
      let u = usage.((c * nk) + k) in
      if u > 0 then begin
        let cap = t.caps.((c * nk) + k) in
        let v = if cap = 0 then 1_000_000 else (u + cap - 1) / cap in
        if v > !worst then worst := v
      end
    done;
    if !worst > !res then res := !worst;
    graded := !graded + !worst
  done;
  (* per-link bandwidth bound — on the bus ceil(moves / moves_per_cycle) *)
  let bus = (link_max + t.moves_per_cycle - 1) / t.moves_per_cycle in
  let bound = max !res (max bus dep) in
  (10_000 * (bound + (t.xmove_weight * xmoves)))
  + (100 * (!graded + bus))
  + moves

(* ------------------------------------------------------------------ *)
(* From scratch: the definition                                        *)

(** In-block intercluster moves implied by [cluster]: one per unique
    (producer, consumer cluster) pair over cut flow edges.  As a side
    effect, [link_usage] is left holding each link's issue count for
    those moves (each move charges every link of its route), which
    [cost] turns into the per-link bandwidth bound. *)
let count_moves t (cluster : int array) link_usage =
  let seen = Array.make (max (t.n * t.nclusters) 1) false in
  let moves = ref 0 in
  for e = 0 to Array.length t.fe_d - 1 do
    let d = t.fe_d.(e) in
    let cu = cluster.(t.fe_u.(e)) in
    let cd = cluster.(d) in
    if cd <> cu then begin
      let idx = (d * t.nclusters) + cu in
      if not seen.(idx) then begin
        seen.(idx) <- true;
        incr moves;
        let p = (cd * t.nclusters) + cu in
        for j = t.route_off.(p) to t.route_off.(p + 1) - 1 do
          let l = t.route_link.(j) in
          link_usage.(l) <- link_usage.(l) + 1
        done
      end
    end
  done;
  !moves

let cost t (cluster : int array) : int =
  let usage = Array.make (t.nclusters * M.fu_kind_count) 0 in
  count_usage t cluster usage;
  let link_usage = Array.make t.nlink_slots 0 in
  let moves = count_moves t cluster link_usage in
  (* dependence bound with cut edges stretched by the route latency *)
  let level = Array.make (max t.n 1) 0 in
  let dep = ref 0 in
  for i = 0 to t.n - 1 do
    let li = level_of t cluster level i in
    level.(i) <- li;
    (* issue bound for everyone; full-latency drain for live-out defs *)
    if li + t.tail.(i) > !dep then dep := li + t.tail.(i)
  done;
  combine t usage
    ~link_max:(Array.fold_left max 0 link_usage)
    ~dep:!dep ~xmoves:(cross_block t cluster) ~moves

(* ------------------------------------------------------------------ *)
(* Incremental: the same terms, kept up to date move by move           *)

(* The move from producer cluster [src] to consumer cluster [dst] starts
   or stops: one more or one fewer issue on every link of its route. *)
let activate t src dst =
  t.moves <- t.moves + 1;
  let p = (src * t.nclusters) + dst in
  for j = t.route_off.(p) to t.route_off.(p + 1) - 1 do
    let l = t.route_link.(j) in
    let u = t.link_usage.(l) in
    t.link_usage.(l) <- u + 1;
    hist_replace t.link_hist ~old:u (u + 1)
  done

let deactivate t src dst =
  t.moves <- t.moves - 1;
  let p = (src * t.nclusters) + dst in
  for j = t.route_off.(p) to t.route_off.(p + 1) - 1 do
    let l = t.route_link.(j) in
    let u = t.link_usage.(l) in
    t.link_usage.(l) <- u - 1;
    hist_replace t.link_hist ~old:u (u - 1)
  done

(* Producer [d]'s [refs] count for cluster [c] turned positive, or back
   to zero: add [c] to its consumer list, or fill [c]'s slot with the
   list's last entry.  The lists are short, one to a few clusters. *)
let cons_add t d c =
  let base = d * t.nclusters and len = t.cons_len.(d) in
  t.cons.(base + len) <- c;
  t.cons_len.(d) <- len + 1

let cons_remove t d c =
  let base = d * t.nclusters and last = t.cons_len.(d) - 1 in
  let j = ref base in
  while t.cons.(!j) <> c do
    incr j
  done;
  t.cons.(!j) <- t.cons.(base + last);
  t.cons_len.(d) <- last

let ceil_div a b = (a + b - 1) / b

(* One op of kind [f] more ([delta = 1]) or fewer ([-1]) on cluster
   [c]: the cluster's entry in the kind's histogram, or the kind's count
   of clusters that hold ops of it without a unit for them. *)
let add_usage t c f delta =
  let idx = (c * M.fu_kind_count) + f in
  let u = t.usage.(idx) in
  let u' = u + delta in
  t.usage.(idx) <- u';
  let cap = t.caps.(idx) in
  if cap > 0 then
    hist_replace t.res_hist.(f) ~old:(ceil_div u cap) (ceil_div u' cap)
  else if u = 0 then t.res_over.(f) <- t.res_over.(f) + 1
  else if u' = 0 then t.res_over.(f) <- t.res_over.(f) - 1

(* [combine]'s worst-cluster pressure of kind [k]: a cluster holding
   ops of a kind it has no unit for reads 1_000_000, as there. *)
let worst t k =
  let top = t.res_hist.(k).top in
  if t.res_over.(k) > 0 then max 1_000_000 top else top

let link_bound t =
  (t.link_hist.top + t.moves_per_cycle - 1) / t.moves_per_cycle

(* [combine] is [10_000 * max inside dep + outside], where [inside] is
   the larger of the resource and link bounds ... *)
let inside t =
  let b = ref (link_bound t) in
  for k = 0 to M.fu_kind_count - 1 do
    let w = worst t k in
    if w > !b then b := w
  done;
  !b

(* ... and [outside] the cross-block, graded, link and move terms. *)
let outside t =
  let graded = ref 0 in
  for k = 0 to M.fu_kind_count - 1 do
    graded := !graded + worst t k
  done;
  (10_000 * t.xmove_weight * t.xmoves)
  + (100 * (!graded + link_bound t))
  + t.moves

let estimate ~inside ~outside dep = (10_000 * max inside dep) + outside

(* Node [i]'s share of the cross-block term: its pins, and its
   couplings (each coupling is listed under both of its nodes). *)
let xterms t i =
  let cluster = t.cluster and k = t.nclusters in
  let ci = cluster.(i) in
  let s = ref 0 in
  for j = t.x_off.(i) to t.x_off.(i + 1) - 1 do
    let arg = t.x_arg.(j) in
    s :=
      !s
      +
      match t.x_kind.(j) with
      | Pin -> t.hops.((arg * k) + ci)
      | Coupled_use -> t.hops.((cluster.(arg) * k) + ci)
      | Coupled_def -> t.hops.((ci * k) + cluster.(arg))
  done;
  !s

(* What node [p]'s edge into [sink] asks of the sink's level. *)
let sink_edge t p =
  let cp = t.cluster.(p) and cs = t.cluster.(t.sink) in
  t.level.(p) + t.sink_lat.(p)
  +
  if t.sink_flow.(p) && cp <> cs then
    t.move_latency * t.hops.((cp * t.nclusters) + cs)
  else 0

let update_sink_in t p =
  let e = sink_edge t p in
  hist_replace t.sink_hist ~old:t.sink_in.(p) e;
  t.sink_in.(p) <- e

let mark_dirty t i =
  if not t.dirty.(i) then begin
    t.dirty.(i) <- true;
    if i < t.dirty_lo then t.dirty_lo <- i;
    if i > t.dirty_hi then t.dirty_hi <- i
  end

let set_level t i l =
  hist_replace t.dep_hist ~old:(t.level.(i) + t.tail.(i)) (l + t.tail.(i));
  t.level.(i) <- l

let load t (cluster : int array) =
  t.cluster <- cluster;
  let k = t.nclusters and nk = M.fu_kind_count in
  count_usage t cluster t.usage;
  for f = 0 to nk - 1 do
    hist_clear t.res_hist.(f);
    t.res_over.(f) <- 0;
    for c = 0 to k - 1 do
      let u = t.usage.((c * nk) + f) and cap = t.caps.((c * nk) + f) in
      if cap > 0 then hist_add t.res_hist.(f) (ceil_div u cap)
      else if u > 0 then t.res_over.(f) <- t.res_over.(f) + 1
    done
  done;
  Array.fill t.refs 0 (Array.length t.refs) 0;
  for i = 0 to t.n - 1 do
    for j = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
      if t.pred_flow.(j) then begin
        let r = (t.pred_node.(j) * k) + cluster.(i) in
        t.refs.(r) <- t.refs.(r) + 1
      end
    done
  done;
  t.moves <- 0;
  Array.fill t.link_usage 0 t.nlink_slots 0;
  hist_clear t.link_hist;
  t.link_hist.count.(0) <- t.nlink_slots;
  for d = 0 to t.n - 1 do
    t.cons_len.(d) <- 0;
    for c = 0 to k - 1 do
      if t.refs.((d * k) + c) > 0 then begin
        cons_add t d c;
        if c <> cluster.(d) then activate t cluster.(d) c
      end
    done
  done;
  t.xmoves <- cross_block t cluster;
  hist_clear t.dep_hist;
  hist_clear t.sink_hist;
  for i = 0 to t.n - 1 do
    if i = t.sink then t.level.(i) <- t.sink_hist.top
    else begin
      t.level.(i) <- level_of t cluster t.level i;
      if t.sink_lat.(i) >= 0 then begin
        t.sink_in.(i) <- sink_edge t i;
        hist_add t.sink_hist t.sink_in.(i)
      end
    end;
    hist_add t.dep_hist (t.level.(i) + t.tail.(i))
  done;
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  t.dirty_lo <- t.n;
  t.dirty_hi <- -1;
  t.sink_moved <- false

(* [move]'s three passes over its ops, each a loop of its own so that
   none allocates a closure.  First mark the ops that change cluster
   and withdraw their usage and the moves they produce. *)
let rec withdraw t c stamp = function
  | [] -> ()
  | i :: rest ->
      let a = t.cluster.(i) in
      if a <> c then begin
        t.mark.(i) <- stamp;
        let f = t.fu_of.(i) in
        add_usage t a f (-1);
        add_usage t c f 1;
        let base = i * t.nclusters in
        for j = 0 to t.cons_len.(i) - 1 do
          let cu = t.cons.(base + j) in
          if cu <> a then deactivate t a cu
        done
      end;
      withdraw t c stamp rest

(* Each moved op's incoming flow edges now read on [c].  A producer
   that moves too has no moves standing, so only its counts change. *)
let rec reread t c stamp = function
  | [] -> ()
  | i :: rest ->
      if t.mark.(i) = stamp then begin
        let k = t.nclusters and a = t.cluster.(i) in
        for j = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
          if t.pred_flow.(j) then begin
            let d = t.pred_node.(j) in
            let fixed = t.mark.(d) <> stamp and cd = t.cluster.(d) in
            let ra = (d * k) + a and rc = (d * k) + c in
            t.refs.(ra) <- t.refs.(ra) - 1;
            if t.refs.(ra) = 0 then begin
              cons_remove t d a;
              if fixed && a <> cd then deactivate t cd a
            end;
            t.refs.(rc) <- t.refs.(rc) + 1;
            if t.refs.(rc) = 1 then begin
              cons_add t d c;
              if fixed && c <> cd then activate t cd c
            end
          end
        done
      end;
      reread t c stamp rest

(* Put each op on [c], its cross-block terms taken off before and added
   back after as one op at a time would; restore the moves it produces,
   now from [c]; and dirty the nodes whose incoming edges changed
   stretch, the op and its flow successors. *)
let rec settle t c stamp = function
  | [] -> ()
  | i :: rest ->
      if t.mark.(i) = stamp then begin
        t.xmoves <- t.xmoves - xterms t i;
        t.cluster.(i) <- c;
        t.xmoves <- t.xmoves + xterms t i;
        let base = i * t.nclusters in
        for j = 0 to t.cons_len.(i) - 1 do
          let cu = t.cons.(base + j) in
          if cu <> c then activate t c cu
        done;
        if i = t.sink then t.sink_moved <- true else mark_dirty t i;
        for j = t.succ_off.(i) to t.succ_end.(i) - 1 do
          if t.succ_flow.(j) then mark_dirty t t.succ_node.(j)
        done
      end;
      settle t c stamp rest

(* The ops move together: a flow edge between two of them is no move
   before or after, and starts and stops none on the way. *)
let move t ops c =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  withdraw t c stamp ops;
  reread t c stamp ops;
  settle t c stamp ops

(* Bring the levels up to date, or stop once they show that the
   dependence bound is at least [stop].  Every [Deps] edge points
   forward, so one sweep in index order over the dirty nodes sees each
   node after all of its predecessors; a node whose level changed
   dirties its successors.  A settled node shows the bound through its
   [level + down], and through its edge into [sink] plus [sink]'s tail.
   When the sweep stops there, the nodes it did not reach stay dirty
   and [sink_moved] stays set: every node below [dirty_lo] still has an
   exact level, and the next sweep finishes the job.  A sweep that
   finishes settles [sink] last, from its histogram, and returns
   [true]. *)
let relevel_until t stop =
  let i = ref t.dirty_lo and reached = ref false in
  while (not !reached) && !i <= t.dirty_hi do
    let v = !i in
    if t.dirty.(v) then begin
      t.dirty.(v) <- false;
      t.relevels <- t.relevels + 1;
      let l = level_of t t.cluster t.level v in
      if l <> t.level.(v) then begin
        set_level t v l;
        for j = t.succ_off.(v) to t.succ_end.(v) - 1 do
          mark_dirty t t.succ_node.(j)
        done
      end;
      if l + t.down.(v) >= stop then reached := true;
      if t.sink_lat.(v) >= 0 then begin
        update_sink_in t v;
        if t.sink_in.(v) + t.tail.(t.sink) >= stop then reached := true
      end
    end;
    incr i
  done;
  if !reached then begin
    t.dirty_lo <- !i;
    false
  end
  else begin
    t.dirty_lo <- t.n;
    t.dirty_hi <- -1;
    if t.sink_moved then begin
      t.sink_moved <- false;
      let s = t.sink in
      for j = t.pred_off.(s) to t.pred_off.(s + 1) - 1 do
        if t.pred_flow.(j) then update_sink_in t t.pred_node.(j)
      done
    end;
    if t.n > 0 && t.sink_hist.top <> t.level.(t.sink) then
      set_level t t.sink t.sink_hist.top;
    true
  end

let current t =
  ignore (relevel_until t max_int : bool);
  estimate ~inside:(inside t) ~outside:(outside t) t.dep_hist.top

(* A lower bound on the dependence bound, read without settling a level.
   Each listed op [i] (ascending; [sink] skipped) gets a bound [lb] on
   its level: its unstretched level, or any predecessor's bound plus the
   edge as stretched now.  A predecessor's bound is its [lb] if listed
   before [i], its level if below [dirty_lo] (exact there), else its
   unstretched level.  The dependence bound is then at least [lb + down]
   at [i], and at least [lb] plus each cut flow edge out of [i] plus
   what follows its head unstretched, the edge into [sink] included. *)
let rec group_dep_from t stamp dep = function
  | [] -> dep
  | i :: rest when i = t.sink -> group_dep_from t stamp dep rest
  | i :: rest ->
      let k = t.nclusters and ci = t.cluster.(i) in
      let li = ref t.up.(i) in
      for j = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
        let p = t.pred_node.(j) in
        let lp =
          if t.mark.(p) = stamp then t.lb.(p)
          else if p < t.dirty_lo then t.level.(p)
          else t.up.(p)
        in
        let cp = t.cluster.(p) in
        let e =
          lp + t.pred_lat.(j)
          +
          if t.pred_flow.(j) && cp <> ci then
            t.move_latency * t.hops.((cp * k) + ci)
          else 0
        in
        if e > !li then li := e
      done;
      t.lb.(i) <- !li;
      t.mark.(i) <- stamp;
      let d = ref (max dep (!li + t.down.(i))) in
      for j = t.succ_off.(i) to t.succ_end.(i) - 1 do
        let u = t.succ_node.(j) in
        let cu = t.cluster.(u) in
        if t.succ_flow.(j) && cu <> ci then begin
          let e =
            !li + t.succ_lat.(j)
            + (t.move_latency * t.hops.((ci * k) + cu))
            + t.down.(u)
          in
          if e > !d then d := e
        end
      done;
      let cs = t.cluster.(t.sink) in
      if t.sink_flow.(i) && cs <> ci then begin
        let e =
          !li + t.sink_lat.(i)
          + (t.move_latency * t.hops.((ci * k) + cs))
          + t.tail.(t.sink)
        in
        if e > !d then d := e
      end;
      group_dep_from t stamp !d rest

let group_dep t moved =
  t.stamp <- t.stamp + 1;
  group_dep_from t t.stamp t.path_floor moved

let path_bound t =
  estimate ~inside:(inside t) ~outside:(outside t) t.path_floor

let group_bound t moved =
  estimate ~inside:(inside t) ~outside:(outside t) (group_dep t moved)

let price t ~best moved =
  let inside = inside t and outside = outside t in
  let floor = estimate ~inside ~outside t.path_floor in
  if floor >= best then begin
    t.pruned <- t.pruned + 1;
    floor
  end
  else
    let bound = estimate ~inside ~outside (group_dep t moved) in
    if bound >= best then begin
      t.pruned <- t.pruned + 1;
      bound
    end
    else
      (* [floor < best], so [best - outside] is positive, and this is
         the least dependence bound that lifts the estimate to [best] *)
      let stop = (best - outside + 9_999) / 10_000 in
      if relevel_until t stop then estimate ~inside ~outside t.dep_hist.top
      else begin
        t.pruned <- t.pruned + 1;
        estimate ~inside ~outside stop
      end

let relevels t = t.relevels
let pruned t = t.pruned
