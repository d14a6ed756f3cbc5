(** If-conversion: predicated hyperblock formation.

    The paper's infrastructure (Trimaran/IMPACT targeting an Itanium-like
    EPIC machine) forms large scheduling regions by if-converting
    branchy code into straight-line predicated blocks.  Without this the
    ADPCM-style benchmarks decompose into 2-5 op basic blocks with no
    instruction-level parallelism and cluster partitioning has nothing to
    do.  This pass replays that substrate:

    - {b diamonds / triangles}: a block [A] ending in [cbr c ? T : F]
      where [T] (and [F], when it is not the join itself) are
      single-predecessor, side-exit-free blocks converging on one join
      [J]: the branch is removed, [T]'s body is appended under guard
      [(p, true)], [F]'s under [(p, false)], and [A] jumps to [J]
      ([p] is a fresh register holding the branch condition — the
      condition must be captured because converted code may overwrite
      its inputs);
    - {b straightening} (in [Straighten]) then merges [A] with [J] when
      [J] has no other predecessors, growing the hyperblock;
    - conversion iterates to a fixpoint, bounded by [max_block_ops].

    Already-guarded code is re-convertible: nested guards compose by
    conjunction into a fresh predicate ([p_both = p_outer & p_inner]
    computed under no guard, which is safe because both inputs are
    plain registers). *)

open Vliw_ir

(* do not grow hyperblocks beyond this *)
let max_block_ops = 160

(* max ops convertible per branch side *)
let max_branch_ops = 48

(** Ops that cannot be nullified safely or that end regions. *)
let convertible_op op =
  match Op.kind op with
  | Op.Call _ -> false (* calls under guard complicate the call graph *)
  | Op.Cbr _ | Op.Jmp _ | Op.Ret _ -> false
  | _ -> true

let convertible_block (b : Block.t) ~max_ops =
  List.length (Block.body b) <= max_ops
  && List.for_all convertible_op (Block.body b)
  && match Op.kind (Block.term b) with Op.Jmp _ -> true | _ -> false

(** Apply guard [(p, sense)] to every op of [body], composing with
    existing guards through fresh conjunction predicates. *)
let guard_body ~fresh_reg ~fresh_op p sense body =
  List.concat_map
    (fun op ->
      match Op.guard op with
      | None -> [ Op.with_guard op { Op.greg = p; gsense = sense } ]
      | Some { Op.greg = q; gsense = qs } ->
          (* combined = (p == sense) && (q == qs) *)
          let pv = fresh_reg () in
          let qv = fresh_reg () in
          let both = fresh_reg () in
          let cmp_p =
            fresh_op
              (Op.Ibin
                 ( Op.Icmp (if sense then Op.Cne else Op.Ceq),
                   pv,
                   Op.Reg p,
                   Op.Imm 0 ))
          in
          let cmp_q =
            fresh_op
              (Op.Ibin
                 ( Op.Icmp (if qs then Op.Cne else Op.Ceq),
                   qv,
                   Op.Reg q,
                   Op.Imm 0 ))
          in
          let conj =
            fresh_op (Op.Ibin (Op.And, both, Op.Reg pv, Op.Reg qv))
          in
          [
            cmp_p;
            cmp_q;
            conj;
            Op.make ~id:(Op.id op)
              ~guard:{ Op.greg = both; gsense = true }
              (Op.kind op);
          ])
    body

type fresh = { mutable next_reg : int; mutable next_op : int }

(** One conversion step on function [f]: find a convertible diamond or
    triangle and flatten it.  Returns [None] at fixpoint. *)
let convert_one ~(fr : fresh) (f : Func.t) : Func.t option =
  let preds = Func.in_degrees f in
  let pred_count l = Option.value ~default:0 (Hashtbl.find_opt preds l) in
  let blocks = Func.blocks f in
  let index = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace index (Block.label b) b) blocks;
  let find_block l = Hashtbl.find index l in
  let fresh_reg () =
    let r = fr.next_reg in
    fr.next_reg <- r + 1;
    Reg.of_int r
  in
  let fresh_op kind =
    let id = fr.next_op in
    fr.next_op <- id + 1;
    Op.make ~id kind
  in
  let try_convert (a : Block.t) : (Block.t * Label.Set.t) option =
    match Op.kind (Block.term a) with
    | Op.Cbr { cond; if_true; if_false } when not (Label.equal if_true if_false)
      -> (
        let t = find_block if_true and fblk = find_block if_false in
        let t_ok =
          pred_count if_true = 1
          && convertible_block t ~max_ops:max_branch_ops
        in
        let f_ok =
          pred_count if_false = 1
          && convertible_block fblk ~max_ops:max_branch_ops
        in
        let succ_of b =
          match Op.kind (Block.term b) with
          | Op.Jmp l -> Some l
          | _ -> None
        in
        (* capture the condition in a fresh predicate register first *)
        let build ~t_body ~f_body ~join ~consumed =
          let total =
            List.length (Block.body a)
            + List.length t_body + List.length f_body
          in
          if total > max_block_ops then None
          else begin
            let p = fresh_reg () in
            let setp = fresh_op (Op.Un (Op.Copy, p, cond)) in
            let t_guarded = guard_body ~fresh_reg ~fresh_op p true t_body in
            let f_guarded = guard_body ~fresh_reg ~fresh_op p false f_body in
            let term = fresh_op (Op.Jmp join) in
            Some
              ( Block.v ~label:(Block.label a)
                  ~body:(Block.body a @ (setp :: t_guarded) @ f_guarded)
                  ~term,
                consumed )
          end
        in
        match (t_ok, f_ok) with
        | true, true -> (
            match (succ_of t, succ_of fblk) with
            | Some jt, Some jf when Label.equal jt jf ->
                (* diamond *)
                build ~t_body:(Block.body t) ~f_body:(Block.body fblk)
                  ~join:jt
                  ~consumed:(Label.Set.of_list [ if_true; if_false ])
            | _ -> (
                (* maybe a triangle through T *)
                match succ_of t with
                | Some jt when Label.equal jt if_false ->
                    build ~t_body:(Block.body t) ~f_body:[] ~join:if_false
                      ~consumed:(Label.Set.singleton if_true)
                | _ -> (
                    match succ_of fblk with
                    | Some jf when Label.equal jf if_true ->
                        build ~t_body:[] ~f_body:(Block.body fblk)
                          ~join:if_true
                          ~consumed:(Label.Set.singleton if_false)
                    | _ -> None)))
        | true, false -> (
            match succ_of t with
            | Some jt when Label.equal jt if_false ->
                build ~t_body:(Block.body t) ~f_body:[] ~join:if_false
                  ~consumed:(Label.Set.singleton if_true)
            | _ -> None)
        | false, true -> (
            match succ_of fblk with
            | Some jf when Label.equal jf if_true ->
                build ~t_body:[] ~f_body:(Block.body fblk) ~join:if_true
                  ~consumed:(Label.Set.singleton if_false)
            | _ -> None)
        | false, false -> None)
    | _ -> None
  in
  let rec scan = function
    | [] -> None
    | a :: rest -> (
        match try_convert a with
        | Some (a', consumed) ->
            let blocks' =
              List.filter_map
                (fun b ->
                  if Label.equal (Block.label b) (Block.label a') then
                    Some a'
                  else if Label.Set.mem (Block.label b) consumed then None
                  else Some b)
                blocks
            in
            Some (Func.v ~name:(Func.name f) ~params:(Func.params f)
                    ~blocks:blocks' ~reg_count:fr.next_reg)
        | None -> scan rest)
  in
  scan blocks

let convert_func ~fr (f : Func.t) : Func.t =
  let rec fixpoint f =
    (* interleave straightening so joins fold into the hyperblock *)
    let f = Straighten.merge_func ~max_ops:max_block_ops f in
    match convert_one ~fr f with
    | Some f' -> fixpoint f'
    | None -> f
  in
  let f = fixpoint f in
  Straighten.merge_func ~max_ops:max_int f

(** If-convert a whole program. *)
let run (prog : Prog.t) : Prog.t =
  let fr = { next_reg = 0; next_op = Prog.op_count prog } in
  let funcs =
    List.map
      (fun f ->
        fr.next_reg <- Func.reg_count f;
        let f' = convert_func ~fr f in
        Func.v ~name:(Func.name f') ~params:(Func.params f')
          ~blocks:(Func.blocks f') ~reg_count:fr.next_reg)
      (Prog.funcs prog)
  in
  let p =
    Prog.v ~globals:(Prog.globals prog) ~funcs ~op_count:fr.next_op
  in
  (try Validate.check p
   with Validate.Invalid m ->
     invalid_arg ("Ifconvert.run produced invalid IR: " ^ m));
  p
