(** Whole programs: globals plus functions, with ["main"] as entry.
    Operation ids are unique program-wide (checked by [Validate]). *)

type t

(** Raises [Invalid_argument] on duplicate function or global names. *)
val v : globals:Data.global list -> funcs:Func.t list -> op_count:int -> t

val globals : t -> Data.global list
val funcs : t -> Func.t list

(** Op ids are in [0 .. op_count - 1]. *)
val op_count : t -> int

(** Raises [Invalid_argument] on unknown names. *)
val find_func : t -> string -> Func.t

val find_func_opt : t -> string -> Func.t option
val main : t -> Func.t
val iter_ops : (Op.t -> unit) -> t -> unit
val fold_ops : ('a -> Op.t -> 'a) -> 'a -> t -> 'a
val num_ops : t -> int

(** Map from op id to (op, function, block). *)
val op_index : t -> (int, Op.t * Func.t * Block.t) Hashtbl.t

(** All static malloc sites, sorted. *)
val alloc_sites : t -> int list

val pp : t Fmt.t
