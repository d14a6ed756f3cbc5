(** Execution profile gathered by the interpreter.

    The paper's framework needs three things from profiling (Sections 3.2
    and 4.1): how often each block executes (to weigh schedule lengths),
    how much heap each malloc site allocates (object sizes), and how often
    each memory operation touches each object (for the Profile Max and
    Naive baselines).  The interpreter counts densely while it runs and
    builds the profile once, at the end. *)

open Vliw_ir

type t = {
  block_counts : (string * Label.t, int) Hashtbl.t;
  op_counts : int array;  (** by op id *)
  accesses : (Data.obj * int) list array;
      (** by memory op id: dynamic accesses per object *)
  heap_sizes : (int * int) list;  (** malloc site -> total bytes, by site *)
}

let make ~blocks ~ops ~accesses ~heap_sizes =
  let block_counts = Hashtbl.create (2 * List.length blocks) in
  List.iter (fun (k, n) -> Hashtbl.replace block_counts k n) blocks;
  { block_counts; op_counts = ops; accesses; heap_sizes }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let block_count t ~func ~label =
  Option.value ~default:0 (Hashtbl.find_opt t.block_counts (func, label))

let in_range a i = i >= 0 && i < Array.length a

let op_count t ~op_id =
  if in_range t.op_counts op_id then t.op_counts.(op_id) else 0

(** Dynamic accesses of [op_id] broken down by object, in the order the
    objects were first touched. *)
let accesses_of t ~op_id : (Data.obj * int) list =
  if in_range t.accesses op_id then t.accesses.(op_id) else []

(** Dynamic accesses summed over all memory operations, per object —
    the ground truth the attribution layer's local/remote split must
    add back up to. *)
let object_access_totals t : (Data.obj * int) list =
  let totals = Hashtbl.create 16 in
  Array.iter
    (List.iter (fun (o, n) ->
         Hashtbl.replace totals o
           (n + Option.value ~default:0 (Hashtbl.find_opt totals o))))
    t.accesses;
  Hashtbl.fold (fun o n acc -> (o, n) :: acc) totals []
  |> List.sort (fun (a, _) (b, _) -> Data.compare_obj a b)

(** Total bytes allocated per malloc site, as an assoc list sorted by
    site id (the object-table input). *)
let heap_sizes t = t.heap_sizes

(** Object sizes table for a program under this profile.  Heap sites that
    never executed get size 0 so they still appear as objects. *)
let object_table prog t =
  let profiled = heap_sizes t in
  let all_sites = Prog.alloc_sites prog in
  let sizes =
    List.map
      (fun s -> (s, Option.value ~default:0 (List.assoc_opt s profiled)))
      all_sites
  in
  Data.table_of ~globals:(Prog.globals prog) ~heap_sizes:sizes

let pp ppf t =
  Fmt.pf ppf "@[<v>profile:@,";
  let blocks =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.block_counts []
    |> List.sort compare
  in
  List.iter
    (fun ((f, l), n) -> Fmt.pf ppf "  %s/%a: %d@," f Label.pp l n)
    blocks;
  Fmt.pf ppf "@]"
