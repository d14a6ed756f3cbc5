(** Basic blocks: label, straight-line body, single terminator. *)

type t

(** Raises [Invalid_argument] when [term] is not a terminator or when a
    terminator appears in the body. *)
val v : label:Label.t -> body:Op.t list -> term:Op.t -> t

val label : t -> Label.t
val body : t -> Op.t list
val term : t -> Op.t

(** All operations, terminator last. *)
val ops : t -> Op.t list

val num_ops : t -> int
val successors : t -> Label.t list
val with_body : t -> Op.t list -> t
val defs : t -> Reg.t list
val uses : t -> Reg.t list
val pp : t Fmt.t
