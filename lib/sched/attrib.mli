(** Cycle attribution: a categorized account of where a schedule's
    cycles go, plus per-link transfer counts and a per-object
    attribution of intercluster traffic.

    Every cycle of a block schedule is assigned to exactly one
    category, so the accounting identity

      [schedule length = sum over categories]

    holds per block by construction, and — weighted by block execution
    counts — for a whole program:  [Perf.total_cycles] (and the
    cycle-level simulator's count, which equals it whenever
    [Pipeline.verify] passes) decomposes exactly into the five
    categories.  A block's cycles are classified from its schedule
    entries alone: each [List_sched.entry] records when the op's
    operands were ready, when it issued and how long its result takes.
    See docs/attribution.md for the precise classification rules. *)

open Vliw_ir

(** Cycle categories, from most to least specific.  A cycle is
    classified by the first rule that applies:
    - [Mem_serialize]: a data-ready memory operation could not issue
      because its home cluster's memory units were busy, or the machine
      sat idle waiting for an in-flight memory result;
    - [Transfer_wait]: a data-ready intercluster move could not issue
      because the bus was saturated, only moves issued this cycle, or
      the machine sat idle waiting for an in-flight intercluster
      transfer;
    - [Issue_stall]: a data-ready operation could not issue because its
      cluster's function units of the required kind were exhausted
      (issue-width bound);
    - [Useful]: at least one non-move operation issued and nothing
      ready was held back;
    - [Empty]: nothing issued and nothing was ready — pure operation
      latency or block drain. *)
type category = Mem_serialize | Transfer_wait | Issue_stall | Useful | Empty

val categories : category list
val num_categories : int
val category_index : category -> int
val category_name : category -> string
val category_of_index : int -> category

(** Per-object dynamic access split: accesses executed by memory
    operations whose value stays on one cluster ([local]) vs. accesses
    whose value or address crosses the intercluster bus ([remote]).
    [local + remote] equals the profiler's per-object access count. *)
type access = { acc_local : int; acc_remote : int }

type totals = {
  t_cycles : int;  (** = [Perf.total_cycles]; equals the category sum *)
  t_categories : int array;  (** dynamic cycles per category *)
  t_moves : int;  (** dynamic intercluster moves *)
  t_link_moves : ((int * int) * int) list;  (** dynamic moves per route *)
  t_obj_moves : (Data.obj * int) list;
      (** dynamic moves attributed to each object (a move carrying
          several objects' data is charged to each, so the column can
          overlap); sorted descending *)
  t_unattributed_moves : int;  (** dynamic moves carrying pure compute flow *)
  t_obj_access : (Data.obj * access) list;  (** sorted by object *)
}

(** The accounting identity, exposed for tests and render-time checks:
    [Some msg] when the categories do not sum to the cycle count. *)
val check_identity : totals -> string option

(** Statically attribute a whole clustered program, weighting each
    block by its profiled execution count — the same methodology as
    [Perf.evaluate], so [t_cycles] equals [Perf.total_cycles] (and the
    simulator's cycle count whenever [Pipeline.verify] passes). *)
val of_clustered :
  machine:Vliw_machine.t ->
  Move_insert.clustered ->
  profile:Vliw_interp.Profile.t ->
  ?objects_of:(int -> Data.Obj_set.t) ->
  unit ->
  totals
