(** Clustered-VLIW machine description.

    The model follows Section 4.1 of Chu & Mahlke, CGO 2006: a multicluster
    VLIW in which each cluster owns a register file, a set of function units
    and (optionally) a private data memory, connected by an intercluster bus
    of fixed bandwidth and latency.  The reference machine is homogeneous
    with two clusters, each having 2 integer, 1 float, 1 memory and 1 branch
    unit, Itanium-like operation latencies, and an intercluster network that
    accepts one move per cycle with a latency of 1, 5 or 10 cycles. *)

(** Kinds of function units.  Every operation executes on exactly one kind;
    intercluster moves use the bus, which is modelled separately. *)
type fu_kind =
  | FU_int
  | FU_float
  | FU_memory
  | FU_branch

let all_fu_kinds = [ FU_int; FU_float; FU_memory; FU_branch ]

let fu_kind_index = function
  | FU_int -> 0
  | FU_float -> 1
  | FU_memory -> 2
  | FU_branch -> 3

let fu_kind_count = 4

let fu_kind_name = function
  | FU_int -> "int"
  | FU_float -> "float"
  | FU_memory -> "memory"
  | FU_branch -> "branch"

let pp_fu_kind ppf k = Fmt.string ppf (fu_kind_name k)

(** A single cluster: how many units of each kind it has and the capacity
    of its local data memory in bytes.  [memory_bytes] only constrains the
    data partitioner's balance objective; it is not a hard limit enforced
    by the simulator (the paper balances sizes rather than enforcing
    capacities). *)
type cluster = {
  fu_counts : int array;  (** indexed by [fu_kind_index] *)
  memory_bytes : int;
}

let cluster ?(memory_bytes = 32768) ~ints ~floats ~mems ~branches () =
  if ints < 0 || floats < 0 || mems < 0 || branches < 0 then
    invalid_arg "Vliw_machine.cluster: negative unit count";
  { fu_counts = [| ints; floats; mems; branches |]; memory_bytes }

let fu_count c k = c.fu_counts.(fu_kind_index k)

(** Interconnect shape.  [Bus] is the paper's machine: one shared
    medium, every transfer occupies it for one issue slot regardless of
    which clusters communicate.  The other topologies model a network of
    point-to-point links: a transfer crosses one link per hop, reserving
    an issue slot on every link of its route in its issue cycle, and
    completes after [hops * move_latency] cycles. *)
type topology =
  | Bus
  | Ring
  | Crossbar
  | Mesh of { rows : int; cols : int }

let topology_name = function
  | Bus -> "bus"
  | Ring -> "ring"
  | Crossbar -> "crossbar"
  | Mesh { rows; cols } -> Fmt.str "mesh%dx%d" rows cols

let pp_topology ppf t = Fmt.string ppf (topology_name t)

(** Intercluster communication network.  On the [Bus] topology this is
    the paper's shared bus: [moves_per_cycle] transfers may start per
    cycle, each completing after [move_latency] cycles.  On the other
    topologies the same two numbers apply per link and per hop. *)
type network = {
  topology : topology;
  move_latency : int;
  moves_per_cycle : int;
}

(** Operation latencies, in cycles from issue to availability of the
    result.  Values are "similar to the Itanium" per the paper. *)
type latencies = {
  int_alu : int;
  int_mul : int;
  int_div : int;
  float_alu : int;
  float_mul : int;
  float_div : int;
  load : int;
  store : int;
  branch : int;
  compare : int;
  local_move : int;  (** register-to-register copy within a cluster *)
}

let itanium_latencies =
  {
    int_alu = 1;
    int_mul = 3;
    int_div = 8;
    float_alu = 4;
    float_mul = 4;
    float_div = 12;
    load = 2;
    store = 1;
    branch = 1;
    compare = 1;
    local_move = 1;
  }

(** Every ordered cluster pair's route, as flat arrays indexed by the
    pair [(src * num_clusters) + dst]: its hop count, and its links in
    path order at [links.(link_off.(p))] to [links.(link_off.(p + 1) - 1)].
    [v] computes it once, so schedulers and estimators read routes
    without walking the topology. *)
type routes = { hops : int array; link_off : int array; links : int array }

type t = {
  name : string;
  clusters : cluster array;
  network : network;
  latencies : latencies;
  routes : routes;
}

(* ------------------------------------------------------------------ *)
(* Links and routes.

   Links are directed and identified by dense integers so schedulers
   and simulators can keep per-link issue-slot counters in flat arrays:
   the bus is the single link 0; on the point-to-point topologies the
   (virtual) link from cluster [a] to cluster [b] is [a * n + b].  Only
   topology-adjacent pairs are ever routed over, so most ids in the
   [n * n] space stay unused — the arrays are tiny (n <= 16 in every
   preset) and the addressing stays O(1). *)

(* The deterministic route from [src] to [dst] over [n] clusters: the
   ring takes the shortest direction (ties go clockwise), the mesh
   routes X-then-Y over a row-major grid. *)
let walk_route topology n ~src ~dst =
  if src = dst then []
  else
    let link a b = (a * n) + b in
    match topology with
    | Bus -> [ 0 ]
    | Crossbar -> [ link src dst ]
    | Ring ->
        let fwd = (dst - src + n) mod n in
        let step = if fwd <= n - fwd then 1 else n - 1 in
        let rec walk c acc =
          if c = dst then List.rev acc
          else
            let c' = (c + step) mod n in
            walk c' (link c c' :: acc)
        in
        walk src []
    | Mesh { rows = _; cols } ->
        let cell r c = (r * cols) + c in
        let sr = src / cols and sc = src mod cols in
        let dr = dst / cols and dc = dst mod cols in
        let rec walk_x c acc =
          if c = dc then acc
          else
            let c' = if dc > c then c + 1 else c - 1 in
            (walk_x [@tailcall]) c' (link (cell sr c) (cell sr c') :: acc)
        in
        let rec walk_y r acc =
          if r = dr then acc
          else
            let r' = if dr > r then r + 1 else r - 1 in
            (walk_y [@tailcall]) r' (link (cell r dc) (cell r' dc) :: acc)
        in
        List.rev (walk_y sr (walk_x sc []))

let route_table topology n =
  let paths =
    Array.init (n * n) (fun p ->
        walk_route topology n ~src:(p / n) ~dst:(p mod n))
  in
  let link_off = Array.make ((n * n) + 1) 0 in
  Array.iteri
    (fun p l -> link_off.(p + 1) <- link_off.(p) + List.length l)
    paths;
  let links = Array.make link_off.(n * n) 0 in
  Array.iteri
    (fun p l -> List.iteri (fun i k -> links.(link_off.(p) + i) <- k) l)
    paths;
  (* a route crosses one link per hop: one on the bus and the crossbar *)
  let hops = Array.init (n * n) (fun p -> link_off.(p + 1) - link_off.(p)) in
  { hops; link_off; links }

let v ~name ~clusters ~network ~latencies =
  if Array.length clusters = 0 then
    invalid_arg "Vliw_machine.v: machine needs at least one cluster";
  if network.move_latency < 0 || network.moves_per_cycle < 1 then
    invalid_arg "Vliw_machine.v: invalid network parameters";
  Array.iteri
    (fun i c ->
      if Array.length c.fu_counts <> fu_kind_count then
        invalid_arg
          (Fmt.str
             "Vliw_machine.v: cluster %d has %d FU counts (need %d, one per \
              kind)"
             i
             (Array.length c.fu_counts)
             fu_kind_count);
      if Array.exists (fun n -> n < 0) c.fu_counts then
        invalid_arg (Fmt.str "Vliw_machine.v: cluster %d: negative FU count" i);
      if c.memory_bytes <= 0 then
        invalid_arg
          (Fmt.str "Vliw_machine.v: cluster %d has no local memory" i))
    clusters;
  (match network.topology with
  | Bus | Ring | Crossbar -> ()
  | Mesh { rows; cols } ->
      if rows < 1 || cols < 1 || rows * cols <> Array.length clusters then
        invalid_arg
          (Fmt.str
             "Vliw_machine.v: mesh %dx%d does not cover %d cluster(s)" rows
             cols (Array.length clusters)));
  let routes = route_table network.topology (Array.length clusters) in
  { name; clusters; network; latencies; routes }

let num_clusters m = Array.length m.clusters
let cluster_of m i = m.clusters.(i)
let topology m = m.network.topology
let move_latency m = m.network.move_latency
let moves_per_cycle m = m.network.moves_per_cycle

(** Size of the per-link slot table a scheduler must allocate. *)
let num_link_slots m =
  match m.network.topology with
  | Bus -> 1
  | Ring | Crossbar | Mesh _ ->
      let n = num_clusters m in
      n * n

(** Number of physical links, for occupancy/capacity reporting.  The
    bus counts as one link, preserving the seed's reported capacity. *)
let num_links m =
  let n = num_clusters m in
  match m.network.topology with
  | Bus -> 1
  | Crossbar -> n * (n - 1)
  | Ring -> if n <= 1 then 0 else if n = 2 then 2 else 2 * n
  | Mesh { rows; cols } -> 2 * ((rows * (cols - 1)) + (cols * (rows - 1)))

let route_pair m ~src ~dst = (src * num_clusters m) + dst

(** Directed links crossed by a transfer from [src] to [dst], in path
    order, read from the route table; [src = dst] needs no link. *)
let route_links m ~src ~dst =
  let p = route_pair m ~src ~dst in
  List.init
    (m.routes.link_off.(p + 1) - m.routes.link_off.(p))
    (fun i -> m.routes.links.(m.routes.link_off.(p) + i))

(** Hop distance of the deterministic route; 0 when [src = dst], 1 for
    any transfer on the bus. *)
let route_hops m ~src ~dst = m.routes.hops.(route_pair m ~src ~dst)

(** End-to-end transfer latency: [move_latency] per hop, so exactly the
    seed's [move_latency] on the bus. *)
let route_latency m ~src ~dst = route_hops m ~src ~dst * m.network.move_latency

(** The longest hop distance between any cluster pair — the factor by
    which a worst-placed transfer is slower than a bus transfer. *)
let max_hops m =
  let n = num_clusters m in
  match m.network.topology with
  | Bus | Crossbar -> 1
  | Ring -> max 1 (n / 2)
  | Mesh { rows; cols } -> max 1 (rows - 1 + (cols - 1))

(** Total units of a given kind across all clusters. *)
let total_fu m k =
  Array.fold_left (fun acc c -> acc + fu_count c k) 0 m.clusters

let is_homogeneous m =
  let c0 = m.clusters.(0) in
  Array.for_all (fun c -> c.fu_counts = c0.fu_counts) m.clusters

(** The paper's reference machine: 2 homogeneous clusters, each with
    2 integer / 1 float / 1 memory / 1 branch unit, Itanium-like latencies,
    bus bandwidth of one move per cycle. *)
let paper_machine ?(move_latency = 5) () =
  let c = cluster ~ints:2 ~floats:1 ~mems:1 ~branches:1 () in
  v
    ~name:(Fmt.str "2cluster-2i1f1m1b-lat%d" move_latency)
    ~clusters:[| c; c |]
    ~network:{ topology = Bus; move_latency; moves_per_cycle = 1 }
    ~latencies:itanium_latencies

(** A wider machine used by the cluster-count ablation: [n] homogeneous
    clusters of the paper's shape. *)
let scaled_machine ?(move_latency = 5) ~clusters:n () =
  if n < 1 then invalid_arg "Vliw_machine.scaled_machine";
  let c = cluster ~ints:2 ~floats:1 ~mems:1 ~branches:1 () in
  v
    ~name:(Fmt.str "%dcluster-2i1f1m1b-lat%d" n move_latency)
    ~clusters:(Array.make n c)
    ~network:{ topology = Bus; move_latency; moves_per_cycle = 1 }
    ~latencies:itanium_latencies

(** A unified-memory twin of [m]: same datapath, but the performance model
    treats all memories as one multiported memory (no data homes).  The
    machine description itself is unchanged; this is just a convenient
    alias used by drivers for labelling. *)
let unified_twin m = { m with name = m.name ^ "-unified" }

let pp ppf m =
  Fmt.pf ppf "@[<v>machine %s:@," m.name;
  Array.iteri
    (fun i c ->
      Fmt.pf ppf "  cluster %d: %a, %d B memory@," i
        Fmt.(list ~sep:(any " ") (fun ppf k ->
          Fmt.pf ppf "%d%s" (fu_count c k) (fu_kind_name k)))
        all_fu_kinds c.memory_bytes)
    m.clusters;
  match m.network.topology with
  | Bus ->
      (* the seed's exact rendering: drivers and the service cache key
         print machines, so bus machines must not change shape *)
      Fmt.pf ppf "  network: %d move(s)/cycle, latency %d@]"
        m.network.moves_per_cycle m.network.move_latency
  | t ->
      Fmt.pf ppf "  network: %s, %d move(s)/cycle per link, latency %d per hop@]"
        (topology_name t) m.network.moves_per_cycle m.network.move_latency
