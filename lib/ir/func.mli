(** Functions: a parameter list and an ordered list of basic blocks,
    the first being the entry. *)

type t

(** Raises [Invalid_argument] on empty block lists or duplicate labels. *)
val v :
  name:string ->
  params:Reg.t list ->
  blocks:Block.t list ->
  reg_count:int ->
  t

val name : t -> string
val params : t -> Reg.t list
val blocks : t -> Block.t list

(** Registers are numbered [0 .. reg_count - 1]. *)
val reg_count : t -> int

val entry : t -> Block.t

val with_blocks : t -> Block.t list -> t
val map_blocks : (Block.t -> Block.t) -> t -> t
val iter_ops : (Op.t -> unit) -> t -> unit
val fold_ops : ('a -> Op.t -> 'a) -> 'a -> t -> 'a
val num_ops : t -> int
val successor_map : t -> Label.t list Label.Map.t

(** Number of CFG in-edges of each label that is a jump target (a branch
    with both arms on one label counts twice). *)
val in_degrees : t -> (Label.t, int) Hashtbl.t

val pp : t Fmt.t
