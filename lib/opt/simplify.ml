(** Scalar simplifications: constant folding and copy propagation.

    The MiniC lowering produces many single-definition temporaries and
    variable copies; folding and propagating them shortens dependence
    chains the way a production front end (the paper's IMPACT) would
    before partitioning runs.

    Both transformations are deliberately conservative in the non-SSA IR:

    - constant folding rewrites an operation whose operands are literals
      into a copy of the result (division/remainder by zero is left
      alone — it must still trap at run time);
    - copy propagation only replaces uses of registers with exactly one,
      unguarded definition [d = copy s] where [s] is a literal or a
      register that itself has exactly one unguarded definition (such
      values never change, so any use seeing [d] may read [s] instead). *)

open Vliw_ir

let fold_ibin (o : Op.ibinop) a b : int option =
  let bool_ c = Some (if c then 1 else 0) in
  match o with
  | Op.Add -> Some (a + b)
  | Op.Sub -> Some (a - b)
  | Op.Mul -> Some (a * b)
  | Op.Div -> if b = 0 then None else Some (a / b)
  | Op.Rem -> if b = 0 then None else Some (a mod b)
  | Op.And -> Some (a land b)
  | Op.Or -> Some (a lor b)
  | Op.Xor -> Some (a lxor b)
  | Op.Shl -> if b < 0 || b > 62 then None else Some (a lsl b)
  | Op.Shr -> if b < 0 || b > 62 then None else Some (a asr b)
  | Op.Icmp Op.Ceq -> bool_ (a = b)
  | Op.Icmp Op.Cne -> bool_ (a <> b)
  | Op.Icmp Op.Clt -> bool_ (a < b)
  | Op.Icmp Op.Cle -> bool_ (a <= b)
  | Op.Icmp Op.Cgt -> bool_ (a > b)
  | Op.Icmp Op.Cge -> bool_ (a >= b)

let fold_op (op : Op.t) : Op.t =
  match Op.kind op with
  | Op.Ibin (o, d, Op.Imm a, Op.Imm b) -> (
      match fold_ibin o a b with
      | Some v -> Op.make ?guard:(Op.guard op) ~id:(Op.id op) (Op.Un (Op.Copy, d, Op.Imm v))
      | None -> op)
  | Op.Un (Op.Neg, d, Op.Imm a) ->
      Op.make ?guard:(Op.guard op) ~id:(Op.id op) (Op.Un (Op.Copy, d, Op.Imm (-a)))
  | Op.Un (Op.Not, d, Op.Imm a) ->
      Op.make ?guard:(Op.guard op) ~id:(Op.id op)
        (Op.Un (Op.Copy, d, Op.Imm (if a = 0 then 1 else 0)))
  | _ -> op

(* ------------------------------------------------------------------ *)

(** Number of definitions of each register in [f] (guarded defs count
    twice so they are never treated as single definitions). *)
let def_counts (f : Func.t) : (Reg.t, int) Hashtbl.t =
  let counts = Hashtbl.create 64 in
  let bump r n =
    Hashtbl.replace counts r (n + Option.value ~default:0 (Hashtbl.find_opt counts r))
  in
  List.iter (fun p -> bump p 1) (Func.params f);
  Func.iter_ops
    (fun op ->
      let n = if Op.is_guarded op then 2 else 1 in
      List.iter (fun r -> bump r n) (Op.defs op))
    f;
  counts

(** One folding + propagation step; also reports whether any op
    changed.  A fold always changes its op (the result is a [Copy] of a
    literal), and a rewrite changes it only when a register operand
    resolves to something other than itself. *)
let simplify_func (f : Func.t) : Func.t * bool =
  let changed = ref false in
  (* pass 1: fold constants *)
  let fold op =
    let op' = fold_op op in
    if op' != op then changed := true;
    op'
  in
  let f = Func.map_blocks (fun b ->
      Block.v ~label:(Block.label b)
        ~body:(List.map fold (Block.body b))
        ~term:(Block.term b))
      f
  in
  (* pass 2: find propagatable copies *)
  let counts = def_counts f in
  let single r = Hashtbl.find_opt counts r = Some 1 in
  let replacement : (Reg.t, Op.operand) Hashtbl.t = Hashtbl.create 32 in
  Func.iter_ops
    (fun op ->
      match (Op.kind op, Op.guard op) with
      | Op.Un (Op.Copy, d, src), None when single d -> (
          match src with
          | Op.Imm _ | Op.Fimm _ -> Hashtbl.replace replacement d src
          | Op.Reg s when single s -> Hashtbl.replace replacement d src
          | Op.Reg _ -> ())
      | _ -> ())
    f;
  (* resolve chains d -> s -> imm *)
  let rec resolve operand depth =
    if depth > 8 then operand
    else
      match operand with
      | Op.Reg r -> (
          match Hashtbl.find_opt replacement r with
          | Some next -> resolve next (depth + 1)
          | None -> operand)
      | _ -> operand
  in
  let rw operand =
    match operand with
    | Op.Reg r ->
        let operand' = resolve operand 0 in
        (match operand' with
        | Op.Reg r' when Reg.equal r r' -> ()
        | _ -> changed := true);
        operand'
    | Op.Imm _ | Op.Fimm _ -> operand
  in
  let rwr r =
    match resolve (Op.Reg r) 0 with
    | Op.Reg r' when not (Reg.equal r r') ->
        changed := true;
        r'
    | _ -> r
  in
  let rewrite op =
    let kind =
      match Op.kind op with
      | Op.Ibin (o, d, a, b) -> Op.Ibin (o, d, rw a, rw b)
      | Op.Fbin (o, d, a, b) -> Op.Fbin (o, d, rw a, rw b)
      | Op.Un (o, d, a) -> Op.Un (o, d, rw a)
      | Op.Load { dst; base; offset } ->
          Op.Load { dst; base = rw base; offset = rw offset }
      | Op.Store { src; base; offset } ->
          Op.Store { src = rw src; base = rw base; offset = rw offset }
      | Op.Addr _ as k -> k
      | Op.Alloc { dst; size; site } -> Op.Alloc { dst; size = rw size; site }
      | Op.Call { dst; callee; args } ->
          Op.Call { dst; callee; args = List.map rw args }
      | Op.In { dst; index } -> Op.In { dst; index = rw index }
      | Op.Out a -> Op.Out (rw a)
      | Op.Cbr { cond; if_true; if_false } ->
          Op.Cbr { cond = rw cond; if_true; if_false }
      | (Op.Jmp _ | Op.Ret None) as k -> k
      | Op.Ret (Some a) -> Op.Ret (Some (rw a))
      | Op.Move { dst; src } -> Op.Move { dst; src = rwr src }
    in
    let guard =
      Option.map
        (fun { Op.greg; gsense } -> { Op.greg = rwr greg; gsense })
        (Op.guard op)
    in
    Op.make ?guard ~id:(Op.id op) kind
  in
  let f =
    Func.map_blocks
      (fun b ->
        Block.v ~label:(Block.label b)
          ~body:(List.map rewrite (Block.body b))
          ~term:(rewrite (Block.term b)))
      f
  in
  (f, !changed)

(** Iterate folding + propagation until a step changes no op, at most 4
    steps. *)
let run (prog : Prog.t) : Prog.t =
  let step p =
    let results = List.map simplify_func (Prog.funcs p) in
    ( Prog.v ~globals:(Prog.globals p) ~funcs:(List.map fst results)
        ~op_count:(Prog.op_count p),
      List.exists snd results )
  in
  let rec go p n =
    if n = 0 then p
    else
      let p', changed = step p in
      if changed then go p' (n - 1) else p'
  in
  let p = go prog 4 in
  (try Validate.check p
   with Validate.Invalid m ->
     invalid_arg ("Simplify.run produced invalid IR: " ^ m));
  p
