(** Undirected weighted graphs with vector (multi-constraint) node
    weights — the input format of the multilevel partitioner, our METIS
    stand-in.

    Internally stored as CSR (compressed sparse row): three flat
    [int array]s of offsets, neighbor ids and edge weights, like METIS's
    [xadj]/[adjncy]/[adjwgt], and one flat [n * ncon] array of node
    weights.  Rows are sorted by neighbor id, hold no duplicates, and the
    structure is symmetric.  Those arrays are private to this library:
    the partitioner's hot loops read them through [Csr], and no caller
    outside it can reach, or mutate, a graph's storage. *)

type t = private Csr.t

val num_nodes : t -> int
val num_constraints : t -> int

(** [node_weight g v c] is node [v]'s weight under constraint [c]. *)
val node_weight : t -> int -> int -> int

(** [iter_neighbors g v f] calls [f u w] for every neighbor [u] of [v]
    (ascending [u]) without allocating. *)
val iter_neighbors : t -> int -> (int -> int -> unit) -> unit

(** Neighbors of a node with edge weights, ascending by id; symmetric.
    Allocates a fresh list — hot paths should use [iter_neighbors]. *)
val neighbors : t -> int -> (int * int) list

val total_weight : t -> int -> int
val num_edges : t -> int

(** Build a graph from per-node weight vectors (all of length [ncon])
    and [(u, v, w)] edges.  Parallel edges are merged by summing their
    weights; self edges and out-of-range endpoints are rejected. *)
val create :
  ncon:int -> weights:int array array -> edges:(int * int * int) list -> t

(** Total weight of edges crossing the partition. *)
val edge_cut : t -> int array -> int

(** Per-part weight sums under one constraint. *)
val part_weights : t -> int array -> nparts:int -> int -> int array

(** Reusable working storage for [contract]. *)
type scratch

(** [scratch g] serves [contract] on [g] and on any graph with no more
    nodes and edges than [g] — every level of [g]'s coarsening. *)
val scratch : t -> scratch

(** [contract ~scratch g ~coarse_of ~num_coarse] merges nodes mapping to
    the same coarse id ([0 .. num_coarse - 1]): node weights sum,
    parallel edges merge, intra-coarse edges vanish.  Builds CSR
    directly — the coarsening hot path: one pass merges each coarse
    node's fine rows, one transpose sorts them.  Raises
    [Invalid_argument] if [scratch] is too small for [g]. *)
val contract :
  scratch:scratch -> t -> coarse_of:int array -> num_coarse:int -> t

(** [induce g ids] is the subgraph on [ids] (strictly increasing node
    ids); node [i] of the result is [ids.(i)]. *)
val induce : t -> int array -> t

(** [relabel g perm] is [g] with node [perm.(i)] renamed to [i] —
    [perm] must be a permutation of the node ids.  Weights and edges
    follow; adjacency rows stay sorted.  Cuts and balances of a
    partition transfer through the relabeling unchanged, which is what
    the multi-seed FM polish relies on. *)
val relabel : t -> int array -> t

val pp : t Fmt.t
