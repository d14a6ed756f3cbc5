(** Reference interpreter for the VLIW IR: functional semantics (the
    oracle for semantic-preservation tests), the profiler of the
    paper's framework, and a dynamic checker (every access must fall
    inside a live data object).

    Memory is flat and byte-addressed with 8-byte words; globals are
    laid out from a fixed base with guard gaps; the heap bump-allocates.
    Guarded (predicated) operations are nullified when their guard
    fails.  Values are held unboxed in tagged cells while a program
    runs, so an executed op allocates nothing; a [value] boxes one for
    outputs and results. *)

open Vliw_ir

exception Runtime_error of string

type value = VInt of int | VFloat of float

val pp_value : value Fmt.t

(** Exact equality (floats compared bit-for-bit: both sides of a
    comparison run the same operations in the same order). *)
val equal_value : value -> value -> bool

(** {2 Tagged cells} (shared with the cycle-level simulator)

    The unboxed form of a [value] array: slot [k] holds [ints.(k)] when
    its tag byte is [int_tag], [floats.(k)] otherwise.  The three arrays
    have one length, and a fresh slot holds int 0. *)

type cells = {
  mutable ints : int array;
  mutable floats : float array;
  mutable tags : Bytes.t;
}

val int_tag : char

(** [cells n]: [n] slots of int 0. *)
val cells : int -> cells

val copy_cells : cells -> cells

(** [extend c n] widens [c] to [n] slots, the new ones int 0. *)
val extend : cells -> int -> unit

(** The int in slot [k]; raises [Runtime_error "expected an int value,
    found float ..."] when it holds a float. *)
val get_int : cells -> int -> int

(** Slot [k] as a boxed value, and the reverse. *)
val get : cells -> int -> value

val set : cells -> int -> value -> unit

(** {2 Evaluation primitives} (shared with the cycle-level simulator)

    [eval_ibin op src a b dst d] puts [op] of slots [a] and [b] of [src]
    in slot [d] of [dst], reading both before it writes.  An int op's
    operands must hold ints ([a] is checked first), a float op promotes
    an int operand, and a copy keeps the tag.  Division and remainder by
    zero raise [Runtime_error]. *)

val eval_ibin : Op.ibinop -> cells -> int -> int -> cells -> int -> unit
val eval_fbin : Op.fbinop -> cells -> int -> int -> cells -> int -> unit
val eval_un : Op.unop -> cells -> int -> cells -> int -> unit

(** {2 Running programs} *)

type result = {
  outputs : value list;
  steps : int;
  profile : Profile.t;
  return_value : value option;
}

val default_fuel : int

(** Raises [Runtime_error] on wild accesses, division by zero,
    out-of-range input reads, or fuel exhaustion.  A finished run adds
    its steps to the [interp.steps] telemetry counter. *)
val run : ?fuel:int -> Prog.t -> input:int array -> result
