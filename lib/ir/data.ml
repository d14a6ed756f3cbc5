(** Data objects: the things the data partitioner assigns homes to.

    Following the paper (Section 3.2), every piece of addressable data is
    either a static global (scalar or array) or the set of heap cells
    allocated by one static [malloc] call site.  Each gets a unique
    identifier; composite objects are never split across clusters.

    All data elements are 8-byte words; a global of [elems] elements
    occupies [8 * elems] bytes.  Heap object sizes are discovered by
    profiling (see [Vliw_interp.Profile]). *)

let word_bytes = 8

(** Initial contents of a global. *)
type init =
  | Zero
  | Words of int64 array
      (** raw 64-bit words; floats are stored via [Int64.bits_of_float] *)

type global = {
  g_name : string;
  g_elems : int;  (** number of 8-byte elements *)
  g_init : init;
  g_is_float : bool;  (** interpretation hint for printing only *)
}

let global ?(is_float = false) ?(init = Zero) name elems =
  if elems <= 0 then invalid_arg "Data.global: size must be positive";
  (match init with
  | Zero -> ()
  | Words w ->
      if Array.length w > elems then
        invalid_arg "Data.global: initializer longer than the global");
  { g_name = name; g_elems = elems; g_init = init; g_is_float = is_float }

let global_bytes g = g.g_elems * word_bytes

(** An object identifier.  Globals are identified by name, heap objects by
    static allocation site. *)
type obj =
  | Global of string
  | Heap of int  (** malloc site id *)

let compare_obj a b =
  match (a, b) with
  | Global x, Global y -> String.compare x y
  | Heap x, Heap y -> Int.compare x y
  | Global _, Heap _ -> -1
  | Heap _, Global _ -> 1

let equal_obj a b = compare_obj a b = 0

let pp_obj ppf = function
  | Global n -> Fmt.pf ppf "@%s" n
  | Heap s -> Fmt.pf ppf "heap#%d" s

let obj_to_string o = Fmt.str "%a" pp_obj o

module Obj_set = Set.Make (struct
  type t = obj

  let compare = compare_obj
end)

module Obj_map = Map.Make (struct
  type t = obj

  let compare = compare_obj
end)

(** The object table: every partitionable object of a program together
    with its size in bytes.  Built from the program's globals plus the
    heap-profile sizes. *)
type table = {
  objects : obj array;  (** dense id -> object *)
  sizes : int array;  (** dense id -> bytes *)
  index : (obj, int) Hashtbl.t;
}

let table_of ~globals ~heap_sizes =
  let heap_sites = List.map fst heap_sizes in
  let objs =
    List.map (fun g -> Global g.g_name) globals
    @ List.map (fun s -> Heap s) heap_sites
  in
  let objects = Array.of_list objs in
  let size_of = function
    | Global n ->
        let g = List.find (fun g -> String.equal g.g_name n) globals in
        global_bytes g
    | Heap s -> List.assoc s heap_sizes
  in
  let sizes = Array.map size_of objects in
  let index = Hashtbl.create (Array.length objects * 2) in
  Array.iteri (fun i o -> Hashtbl.replace index o i) objects;
  { objects; sizes; index }

let table_length t = Array.length t.objects
let obj_of_id t i = t.objects.(i)
let size_of_id t i = t.sizes.(i)

let id_of_obj t o =
  match Hashtbl.find_opt t.index o with
  | Some i -> i
  | None -> invalid_arg (Fmt.str "Data.id_of_obj: unknown object %a" pp_obj o)

let mem_obj t o = Hashtbl.mem t.index o

let size_of_obj t o = size_of_id t (id_of_obj t o)

let total_bytes t = Array.fold_left ( + ) 0 t.sizes

let pp_table ppf t =
  Fmt.pf ppf "@[<v>";
  Array.iteri
    (fun i o -> Fmt.pf ppf "%3d  %-20s %6d B@," i (obj_to_string o) t.sizes.(i))
    t.objects;
  Fmt.pf ppf "@]"
