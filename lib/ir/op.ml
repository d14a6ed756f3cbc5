(** IR operations.

    The IR is a conventional load/store register IR for a VLIW target:
    three-address arithmetic over virtual registers, explicit loads and
    stores (byte addressing, 8-byte words), conditional branches with two
    explicit targets, calls, and a few intrinsics ([in]/[out] for workload
    I/O and [alloc] for heap allocation, which carries its static site id
    so the points-to analysis and the heap profiler can name the object).

    Every operation has a program-unique integer id.  Partitioners and
    schedulers never mutate operations; cluster assignments and points-to
    facts live in side tables keyed by id. *)

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

type operand =
  | Reg of Reg.t
  | Imm of int
  | Fimm of float

type kind =
  | Ibin of ibinop * Reg.t * operand * operand
  | Fbin of fbinop * Reg.t * operand * operand
  | Un of unop * Reg.t * operand
  | Load of { dst : Reg.t; base : operand; offset : operand }
  | Store of { src : operand; base : operand; offset : operand }
  | Addr of { dst : Reg.t; obj : string }
      (** materialize the address of global [obj] *)
  | Alloc of { dst : Reg.t; size : operand; site : int }
  | Call of { dst : Reg.t option; callee : string; args : operand list }
  | In of { dst : Reg.t; index : operand }
  | Out of operand
  | Cbr of { cond : operand; if_true : Label.t; if_false : Label.t }
  | Jmp of Label.t
  | Ret of operand option
  | Move of { dst : Reg.t; src : Reg.t }
      (** intercluster transfer, inserted after partitioning; never
          produced by the frontend *)

(** Predication (EPIC-style guarded execution).  An operation with guard
    [(r, sense)] executes only when [r <> 0] equals [sense]; otherwise it
    is nullified: no register write, no memory or I/O effect.  Guards are
    produced by the if-conversion pass ([Opt.Ifconvert]); terminators are
    never guarded. *)
type guard = { greg : Reg.t; gsense : bool }

type t = { id : int; kind : kind; guard : guard option }

let make ?guard ~id kind = { id; kind; guard }
let id op = op.id
let kind op = op.kind
let guard op = op.guard
let is_guarded op = Option.is_some op.guard

let with_guard op guard =
  match op.kind with
  | Cbr _ | Jmp _ | Ret _ -> invalid_arg "Op.with_guard: guarded terminator"
  | _ -> { op with guard = Some guard }

let compare a b = Int.compare a.id b.id
let equal a b = Int.equal a.id b.id

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)

let is_terminator op =
  match op.kind with Cbr _ | Jmp _ | Ret _ -> true | _ -> false

let is_mem op = match op.kind with Load _ | Store _ -> true | _ -> false
let is_load op = match op.kind with Load _ -> true | _ -> false
let is_store op = match op.kind with Store _ -> true | _ -> false
let is_alloc op = match op.kind with Alloc _ -> true | _ -> false
let is_move op = match op.kind with Move _ -> true | _ -> false
let is_call op = match op.kind with Call _ -> true | _ -> false

(** Memory-like for the purposes of data partitioning: operations that
    touch a data object ([Alloc] defines one).  Matches the paper's use of
    "memory operations and calls to malloc()" (Section 3.3). *)
let touches_object op = is_mem op || is_alloc op

(* ------------------------------------------------------------------ *)
(* Defs and uses                                                       *)

let reg_of_operand = function Reg r -> Some r | Imm _ | Fimm _ -> None

let defs op =
  match op.kind with
  | Ibin (_, d, _, _) | Fbin (_, d, _, _) | Un (_, d, _) -> [ d ]
  | Load { dst; _ } | Addr { dst; _ } | Alloc { dst; _ } | In { dst; _ } ->
      [ dst ]
  | Call { dst = Some d; _ } -> [ d ]
  | Call { dst = None; _ } -> []
  | Move { dst; _ } -> [ dst ]
  | Store _ | Out _ | Cbr _ | Jmp _ | Ret _ -> []

let use_operands op =
  match op.kind with
  | Ibin (_, _, a, b) | Fbin (_, _, a, b) -> [ a; b ]
  | Un (_, _, a) -> [ a ]
  | Load { base; offset; _ } -> [ base; offset ]
  | Store { src; base; offset } -> [ src; base; offset ]
  | Addr _ -> []
  | Alloc { size; _ } -> [ size ]
  | Call { args; _ } -> args
  | In { index; _ } -> [ index ]
  | Out a -> [ a ]
  | Cbr { cond; _ } -> [ cond ]
  | Jmp _ -> []
  | Ret (Some a) -> [ a ]
  | Ret None -> []
  | Move { src; _ } -> [ Reg src ]

let uses op =
  let base = List.filter_map reg_of_operand (use_operands op) in
  match op.guard with Some { greg; _ } -> greg :: base | None -> base

(** Successor labels of a terminator (empty for non-terminators and
    returns). *)
let successors op =
  match op.kind with
  | Cbr { if_true; if_false; _ } -> [ if_true; if_false ]
  | Jmp l -> [ l ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Machine mapping                                                     *)

let fu_kind op : Vliw_machine.fu_kind =
  match op.kind with
  | Load _ | Store _ -> FU_memory
  | Fbin _ -> FU_float
  | Un ((Itof | Ftoi), _, _) -> FU_float
  | Cbr _ | Jmp _ | Ret _ | Call _ | Alloc _ -> FU_branch
  | In _ | Out _ -> FU_memory
  | Ibin _ | Un _ | Addr _ -> FU_int
  | Move _ ->
      (* moves travel on the bus; give them the int unit kind only for
         uniform printing — the scheduler special-cases them. *)
      FU_int

let latency (l : Vliw_machine.latencies) op =
  match op.kind with
  | Ibin (Mul, _, _, _) -> l.int_mul
  | Ibin ((Div | Rem), _, _, _) -> l.int_div
  | Ibin (Icmp _, _, _, _) -> l.compare
  | Ibin _ -> l.int_alu
  | Fbin (Fmul, _, _, _) -> l.float_mul
  | Fbin (Fdiv, _, _, _) -> l.float_div
  | Fbin (Fcmp _, _, _, _) -> l.compare
  | Fbin _ -> l.float_alu
  | Un ((Itof | Ftoi), _, _) -> l.float_alu
  | Un _ -> l.int_alu
  | Load _ -> l.load
  | Store _ -> l.store
  | Addr _ -> l.int_alu
  | Alloc _ -> l.int_alu
  | Call _ -> l.branch
  | In _ -> l.load
  | Out _ -> l.store
  | Cbr _ | Jmp _ | Ret _ -> l.branch
  | Move _ -> l.local_move

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)

let icmp_name = function
  | Ceq -> "eq"
  | Cne -> "ne"
  | Clt -> "lt"
  | Cle -> "le"
  | Cgt -> "gt"
  | Cge -> "ge"

let ibinop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Icmp c -> "cmp." ^ icmp_name c

let fbinop_name = function
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Fcmp c -> "fcmp." ^ icmp_name c

let unop_name = function
  | Neg -> "neg"
  | Not -> "not"
  | Copy -> "copy"
  | Itof -> "itof"
  | Ftoi -> "ftoi"

let pp_operand ppf = function
  | Reg r -> Reg.pp ppf r
  | Imm i -> Fmt.int ppf i
  | Fimm f -> Fmt.pf ppf "%h" f

let pp ppf op =
  (match op.guard with
  | Some { greg; gsense } ->
      Fmt.pf ppf "(%s%a) " (if gsense then "" else "!") Reg.pp greg
  | None -> ());
  let p fmt = Fmt.pf ppf fmt in
  match op.kind with
  | Ibin (o, d, a, b) ->
      p "%a = %s %a, %a" Reg.pp d (ibinop_name o) pp_operand a pp_operand b
  | Fbin (o, d, a, b) ->
      p "%a = %s %a, %a" Reg.pp d (fbinop_name o) pp_operand a pp_operand b
  | Un (o, d, a) -> p "%a = %s %a" Reg.pp d (unop_name o) pp_operand a
  | Load { dst; base; offset } ->
      p "%a = load [%a + %a]" Reg.pp dst pp_operand base pp_operand offset
  | Store { src; base; offset } ->
      p "store %a -> [%a + %a]" pp_operand src pp_operand base pp_operand
        offset
  | Addr { dst; obj } -> p "%a = addr @%s" Reg.pp dst obj
  | Alloc { dst; size; site } ->
      p "%a = alloc %a (site %d)" Reg.pp dst pp_operand size site
  | Call { dst = Some d; callee; args } ->
      p "%a = call %s(%a)" Reg.pp d callee
        Fmt.(list ~sep:comma pp_operand)
        args
  | Call { dst = None; callee; args } ->
      p "call %s(%a)" callee Fmt.(list ~sep:comma pp_operand) args
  | In { dst; index } -> p "%a = in [%a]" Reg.pp dst pp_operand index
  | Out a -> p "out %a" pp_operand a
  | Cbr { cond; if_true; if_false } ->
      p "br %a ? %a : %a" pp_operand cond Label.pp if_true Label.pp if_false
  | Jmp l -> p "jmp %a" Label.pp l
  | Ret (Some a) -> p "ret %a" pp_operand a
  | Ret None -> p "ret"
  | Move { dst; src } -> p "%a = xfer %a" Reg.pp dst Reg.pp src

let to_string op = Fmt.str "%a" pp op
