(** Interprocedural points-to analysis.

    A flow-insensitive, context-insensitive inclusion-based (Andersen
    style) analysis over virtual registers.  It plays the role of the
    IMPACT interprocedural pointer analysis the paper relies on (Section
    3.2): it assigns every static global and every malloc site a unique
    object id and annotates each load/store with the set of objects it
    may access.

    MiniC has no pointers in memory (no pointer-to-pointer types, no
    pointer globals), so points-to sets live on registers only and the
    constraint system has just three rules:
    - base facts from [Addr] (globals) and [Alloc] (heap sites);
    - copies through [Copy], [Add], [Sub] (pointer arithmetic);
    - interprocedural flow through call arguments and returns. *)

open Vliw_ir

type key = string * Reg.t  (** function name, register *)

type t = {
  pts : (key, Data.Obj_set.t) Hashtbl.t;
  mem_objs : (int, Data.Obj_set.t) Hashtbl.t;
      (** op id -> accessible objects, for loads, stores and allocs *)
}

let find_pts tbl k =
  Option.value ~default:Data.Obj_set.empty (Hashtbl.find_opt tbl k)

let compute (prog : Prog.t) : t =
  let pts : (key, Data.Obj_set.t) Hashtbl.t = Hashtbl.create 256 in
  (* subset edges: src key flows into dst key *)
  let edges : (key, key list) Hashtbl.t = Hashtbl.create 256 in
  let add_edge src dst =
    Hashtbl.replace edges src
      (dst :: Option.value ~default:[] (Hashtbl.find_opt edges src))
  in
  let add_base k obj =
    Hashtbl.replace pts k (Data.Obj_set.add obj (find_pts pts k))
  in
  (* collect return-value registers per function *)
  let ret_regs : (string, Reg.t list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let rs =
        Func.fold_ops
          (fun acc op ->
            match Op.kind op with
            | Op.Ret (Some (Op.Reg r)) -> r :: acc
            | _ -> acc)
          [] f
      in
      Hashtbl.replace ret_regs (Func.name f) rs)
    (Prog.funcs prog);
  (* build constraints *)
  List.iter
    (fun f ->
      let fname = Func.name f in
      Func.iter_ops
        (fun op ->
          match Op.kind op with
          | Op.Addr { dst; obj } -> add_base (fname, dst) (Data.Global obj)
          | Op.Alloc { dst; site; _ } -> add_base (fname, dst) (Data.Heap site)
          | Op.Un (Op.Copy, d, Op.Reg s) -> add_edge (fname, s) (fname, d)
          | Op.Ibin ((Op.Add | Op.Sub), d, a, b) ->
              (match a with
              | Op.Reg r -> add_edge (fname, r) (fname, d)
              | _ -> ());
              (match b with
              | Op.Reg r -> add_edge (fname, r) (fname, d)
              | _ -> ())
          | Op.Call { dst; callee; args } -> (
              match Prog.find_func_opt prog callee with
              | None -> ()
              | Some g ->
                  let params = Func.params g in
                  List.iteri
                    (fun i arg ->
                      match (arg, List.nth_opt params i) with
                      | Op.Reg r, Some p ->
                          add_edge (fname, r) (callee, p)
                      | _ -> ())
                    args;
                  (match dst with
                  | Some d ->
                      List.iter
                        (fun r -> add_edge (callee, r) (fname, d))
                        (Option.value ~default:[]
                           (Hashtbl.find_opt ret_regs callee))
                  | None -> ()))
          | _ -> ())
        f)
    (Prog.funcs prog);
  (* propagate to fixpoint with a worklist *)
  let work = Queue.create () in
  Hashtbl.iter (fun k _ -> Queue.add k work) pts;
  while not (Queue.is_empty work) do
    let k = Queue.pop work in
    let srcs = find_pts pts k in
    List.iter
      (fun dst ->
        let cur = find_pts pts dst in
        let merged = Data.Obj_set.union cur srcs in
        if not (Data.Obj_set.equal merged cur) then begin
          Hashtbl.replace pts dst merged;
          Queue.add dst work
        end)
      (Option.value ~default:[] (Hashtbl.find_opt edges k))
  done;
  (* annotate memory operations *)
  let mem_objs = Hashtbl.create 256 in
  List.iter
    (fun f ->
      let fname = Func.name f in
      Func.iter_ops
        (fun op ->
          let base_objs base =
            match base with
            | Op.Reg r -> find_pts pts (fname, r)
            | Op.Imm _ | Op.Fimm _ -> Data.Obj_set.empty
          in
          match Op.kind op with
          | Op.Load { base; _ } ->
              Hashtbl.replace mem_objs (Op.id op) (base_objs base)
          | Op.Store { base; _ } ->
              Hashtbl.replace mem_objs (Op.id op) (base_objs base)
          | Op.Alloc { site; _ } ->
              Hashtbl.replace mem_objs (Op.id op)
                (Data.Obj_set.singleton (Data.Heap site))
          | _ -> ())
        f)
    (Prog.funcs prog);
  { pts; mem_objs }

(** Objects operation [op_id] may access ([Load]/[Store]/[Alloc]); empty
    for other operations. *)
let objects_of t op_id =
  Option.value ~default:Data.Obj_set.empty (Hashtbl.find_opt t.mem_objs op_id)

(** Points-to set of a register. *)
let points_to t ~func ~reg = find_pts t.pts (func, reg)
