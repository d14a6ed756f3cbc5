(** Multilevel multi-constraint graph bisection (METIS stand-in):
    heavy-edge-matching coarsening, greedy-growing initial bisection,
    Fiduccia-Mattheyses refinement with rollback at every uncoarsening
    level.  Deterministic for a given seed.  See [docs/partitioner.md]
    for the pipeline and complexity. *)

type config = {
  imbalance : float array;
      (** per-constraint balance tolerance, e.g. 0.1 = 10% *)
  targets : float array option;
      (** per-constraint share of part 0 (default 0.5 everywhere); for
          machines with asymmetric memories or datapaths *)
  seed : int;
  coarsen_until : int;  (** stop coarsening below this many nodes *)
  initial_tries : int;  (** greedy-growing attempts on the coarsest graph *)
  fm_max_bad_moves : int;  (** FM hill-climbing patience *)
  starts : int;
      (** independent multilevel starts (different coarsening
          tie-breaks); the best finest-level result wins *)
  fm_seeds : int;
      (** speculative multi-seed FM: the winning start gets [fm_seeds]
          concurrent final refinement passes, each on a seeded node
          relabeling of the graph (seed 0 = identity), and the best
          (infeasibility, cut) wins with ties to the lowest seed. *)
  refine_cycles : int;
      (** extra restricted V-cycles after the first multilevel pass;
          each re-coarsens along the current partition and refines again
          from the coarsest level up, and never worsens the
          ([infeasibility], [cut]) order *)
}

val default_config : ncon:int -> config

(** Bisect a graph; returns a 0/1 part per node.  Balance caps apply per
    constraint; when exact feasibility is impossible (bin-packing), the
    result is as close as FM gets.

    Independent starts with per-start rng streams, local-max matching
    during coarsening, and a speculative multi-seed FM polish; starts
    and polish seeds run concurrently on [pool].  The result depends
    only on [config] and the graph: the same for any pool width, on
    either [Par] backend, and without a pool (everything inline). *)
val bisect : ?config:config -> ?pool:Par.pool -> Graph.t -> int array

(** Recursive bisection into a power-of-two number of parts.  [?pool]
    as in [bisect]. *)
val kway : ?config:config -> ?pool:Par.pool -> Graph.t -> nparts:int -> int array

(** One FM refinement stage on an existing bisection, in place: up to
    [passes] FM passes with best-prefix rollback.  Never makes the
    partition worse under the ([infeasibility], [cut]) lexicographic
    order.  Exposed for tests and benchmarks. *)
val fm_refine : ?passes:int -> config -> Graph.t -> int array -> unit

(** (infeasibility, cut) of a bisection under a configuration —
    lexicographically smaller is better, (0, _) is feasible.  Exposed
    for tests and benchmarks. *)
val evaluate : config -> Graph.t -> int array -> int * int
