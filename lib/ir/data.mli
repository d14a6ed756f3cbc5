(** Data objects: the units the data partitioner assigns homes to.

    Every piece of addressable data is either a static global (scalar or
    array) or the set of heap cells allocated by one static malloc call
    site (paper Section 3.2).  All elements are 8-byte words. *)

val word_bytes : int

(** Initial contents of a global; floats are stored via
    [Int64.bits_of_float]. *)
type init = Zero | Words of int64 array

type global = {
  g_name : string;
  g_elems : int;  (** number of 8-byte elements *)
  g_init : init;
  g_is_float : bool;  (** printing hint only *)
}

(** Build a global; rejects non-positive sizes and oversized
    initializers. *)
val global : ?is_float:bool -> ?init:init -> string -> int -> global

val global_bytes : global -> int

(** Object identity: globals by name, heap objects by allocation site. *)
type obj = Global of string | Heap of int

val compare_obj : obj -> obj -> int
val equal_obj : obj -> obj -> bool
val pp_obj : obj Fmt.t
val obj_to_string : obj -> string

module Obj_set : Set.S with type elt = obj
module Obj_map : Map.S with type key = obj

(** The object table: all partitionable objects of a program with their
    sizes in bytes (heap sizes come from profiling). *)
type table

val table_of :
  globals:global list -> heap_sizes:(int * int) list -> table

val table_length : table -> int
val obj_of_id : table -> int -> obj
val size_of_id : table -> int -> int

(** Raises [Invalid_argument] on unknown objects. *)
val id_of_obj : table -> obj -> int

val mem_obj : table -> obj -> bool
val size_of_obj : table -> obj -> int
val total_bytes : table -> int
val pp_table : table Fmt.t
