(** IR operations: three-address code over virtual registers for a VLIW
    target, with explicit loads/stores, two-target conditional branches,
    workload-I/O intrinsics, heap allocation carrying its static site id,
    and EPIC-style guarded (predicated) execution.

    Operations are immutable and carry a program-unique id; cluster
    assignments and points-to facts live in side tables keyed by id. *)

type icmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type ibinop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr  (** arithmetic shift right *)
  | Icmp of icmp

type fbinop = Fadd | Fsub | Fmul | Fdiv | Fcmp of icmp

type unop =
  | Neg
  | Not  (** logical: 0 -> 1, nonzero -> 0 *)
  | Copy
  | Itof
  | Ftoi  (** truncation *)

type operand = Reg of Reg.t | Imm of int | Fimm of float

type kind =
  | Ibin of ibinop * Reg.t * operand * operand
  | Fbin of fbinop * Reg.t * operand * operand
  | Un of unop * Reg.t * operand
  | Load of { dst : Reg.t; base : operand; offset : operand }
  | Store of { src : operand; base : operand; offset : operand }
  | Addr of { dst : Reg.t; obj : string }
      (** materialize the address of a global *)
  | Alloc of { dst : Reg.t; size : operand; site : int }
  | Call of { dst : Reg.t option; callee : string; args : operand list }
  | In of { dst : Reg.t; index : operand }
  | Out of operand
  | Cbr of { cond : operand; if_true : Label.t; if_false : Label.t }
  | Jmp of Label.t
  | Ret of operand option
  | Move of { dst : Reg.t; src : Reg.t }
      (** intercluster transfer, inserted after partitioning *)

(** A guard [(r, sense)]: the operation executes only when
    [(r <> 0) = sense]; otherwise it is nullified (no write, no
    effect). *)
type guard = { greg : Reg.t; gsense : bool }

type t

val make : ?guard:guard -> id:int -> kind -> t
val id : t -> int
val kind : t -> kind
val guard : t -> guard option
val is_guarded : t -> bool

(** Raises [Invalid_argument] on terminators. *)
val with_guard : t -> guard -> t

val compare : t -> t -> int
val equal : t -> t -> bool

(** {2 Classification} *)

val is_terminator : t -> bool
val is_mem : t -> bool
val is_load : t -> bool
val is_store : t -> bool
val is_alloc : t -> bool
val is_move : t -> bool
val is_call : t -> bool

(** Memory-like for data partitioning: loads, stores and allocs (a
    malloc site belongs with its heap object). *)
val touches_object : t -> bool

(** {2 Defs and uses} *)

val reg_of_operand : operand -> Reg.t option
val defs : t -> Reg.t list
val use_operands : t -> operand list

(** Used registers, including the guard register. *)
val uses : t -> Reg.t list

(** Successor labels of a terminator; empty otherwise. *)
val successors : t -> Label.t list

(** {2 Machine mapping} *)

val fu_kind : t -> Vliw_machine.fu_kind
val latency : Vliw_machine.latencies -> t -> int

(** {2 Printing} *)

val icmp_name : icmp -> string
val ibinop_name : ibinop -> string
val fbinop_name : fbinop -> string
val unop_name : unop -> string
val pp_operand : operand Fmt.t
val pp : t Fmt.t
val to_string : t -> string
