(** Per-benchmark, per-method explanation reports.

    An explanation combines, for every partitioning method on one
    benchmark and machine: the static cycle model's totals, the full
    cycle attribution ([Vliw_sched.Attrib]), whole-program function-unit
    and bus occupancy, per-link intercluster traffic, GDP's cut edges
    and the inserted moves (both read from the compile's result, not
    from telemetry) and a per-object placement table (home cluster,
    local/remote accesses, attributed moves and their transfer-cycle
    cost).  Renderers produce Markdown, CSV and machine-readable
    JSON. *)

open Vliw_ir

type method_row = {
  mr_method : string;
  mr_cycles : int;  (** [Perf.total_cycles]; equals the attribution sum *)
  mr_dynamic_moves : int;
  mr_static_moves : int;
  mr_cut_edges : int option;
      (** GDP's graph-partition cut ([Methods.outcome]'s [cut_edges]);
          [None] for the other methods *)
  mr_inserted_moves : int;
      (** moves inserted into the clustered program: the entries of its
          [move_routes], which the [moves.inserted] counter also adds *)
  mr_totals : Vliw_sched.Attrib.totals;
  mr_occupancy : Vliw_sched.Occupancy.t option;
      (** whole-program occupancy, weighted by block execution counts;
          [None] for an empty program *)
  mr_obj_home : (Data.obj * int) list;  (** empty for unified memory *)
}

type t = {
  ex_bench : string;
  ex_machine : Vliw_machine.t;
      (** the machine the rows were computed on; renderers use it for
          distance-aware transfer costs instead of reconstructing a bus
          machine from the summary ints below *)
  ex_latency : int;  (** per-hop move latency, for headers and CSV *)
  ex_clusters : int;
  ex_access_totals : (Data.obj * int) list;
      (** the profiler's per-object access counts (ground truth the
          local/remote split sums back to) *)
  ex_rows : method_row list;  (** one per method, [Methods.all] order *)
}

(** Explain one prepared program on an explicit machine.  Raises
    [Failure] if the attribution identity is violated for any method —
    the identity is an invariant, not a best-effort statistic. *)
val explain : machine:Vliw_machine.t -> Gdp_core.Pipeline.prepared -> t

(** [explain] on [prepare_default] and the paper machine at the given
    move latency. *)
val explain_bench : move_latency:int -> Benchsuite.Bench_intf.t -> t

(** {2 Rendering} *)

(** Top-k rows of the "most expensive placements" table: objects sorted
    by attributed transfer cycles (then remote accesses), most expensive
    first. *)
val expensive_placements :
  machine:Vliw_machine.t ->
  method_row ->
  k:int ->
  (Data.obj * int option * Vliw_sched.Attrib.access * int * int) list
(** (object, home, accesses, attributed moves, transfer cycles) *)

val to_markdown : Format.formatter -> t -> unit

(** One CSV row per (method, category) plus per-object rows; see the
    header lines in the output. *)
val methods_csv : Format.formatter -> t -> unit

val objects_csv : Format.formatter -> t -> unit

(** Machine-readable JSON ("gdp-attrib/1"), one document per
    explanation set, one row per (benchmark, method).  Write it with
    [Minijson.write_rows]. *)
val to_json : t list -> Minijson.t

(** Write [<bench>.md] per explanation plus [attribution.csv],
    [objects.csv] and [attribution.json] into [dir] (created if
    missing).  Returns the list of files written. *)
val write_reports : dir:string -> t list -> string list
