(** Intercluster move insertion.

    Given a program and a complete operation/object assignment, rewrite
    every function so that cross-cluster register flow goes through
    explicit [Move] operations:

    - each register [r] lives on its home cluster (the cluster of its
      defining operations — all defs agree, see [Assignment]);
    - a consumer on another cluster [c] reads a fresh shadow register
      instead, and a [Move shadow <- r] is inserted right after every
      definition of [r] that reaches a use on [c];
    - parameters are homed on the cluster that uses them most (call
      boundaries transfer values for free; see DESIGN.md), with entry
      moves feeding the other clusters.

    The result is a semantically equivalent program (the interpreter can
    run it — moves are just copies) whose dynamic intercluster move count
    is the number of executed [Move] operations. *)

open Vliw_ir
module An = Vliw_analysis

type clustered = {
  cprog : Prog.t;
  cassign : Assignment.t;
  move_routes : (int, int * int) Hashtbl.t;
      (** move op id -> (source cluster, destination cluster) *)
  mutable schedule : Schedule.t option;  (** kept by [schedule] *)
}

let apply (prog : Prog.t) (assign : Assignment.t) : clustered =
  Telemetry.with_span "move-insert" @@ fun () ->
  Prog.iter_ops
    (fun op ->
      if Op.is_move op then
        invalid_arg "Move_insert.apply: program already contains moves")
    prog;
  let next_op_id = ref (Prog.op_count prog) in
  let fresh_op kind =
    let id = !next_op_id in
    incr next_op_id;
    Op.make ~id kind
  in
  let cassign = Assignment.copy assign in
  let move_routes = Hashtbl.create 64 in
  let cluster_of op_id = Assignment.cluster_of assign ~op_id in

  let rewrite_func (f : Func.t) : Func.t =
    let cfg = An.Cfg.of_func f in
    let reaching = An.Reaching.compute cfg in
    let homes = Assignment.reg_homes assign f in
    (* parameter homes: majority cluster among uses reached by the
       parameter's pseudo-definition, unless the register also has real
       defs (then the defs' home wins for consistency). *)
    List.iter
      (fun p ->
        if not (Hashtbl.mem homes p) then begin
          let votes = Hashtbl.create 4 in
          List.iter
            (fun (use_id, _) ->
              let c = cluster_of use_id in
              Hashtbl.replace votes c
                (1 + Option.value ~default:0 (Hashtbl.find_opt votes c)))
            (An.Reaching.uses_of_def reaching
               ~def_id:(An.Reaching.param_def p));
          let best =
            Hashtbl.fold
              (fun c n acc ->
                match acc with
                | Some (_, bn) when bn >= n -> acc
                | _ -> Some (c, n))
              votes None
          in
          Hashtbl.replace homes p (match best with Some (c, _) -> c | None -> 0)
        end)
      (Func.params f);
    let home_of r =
      match Hashtbl.find_opt homes r with
      | Some c -> c
      | None -> 0 (* never-defined, never-used register *)
    in
    (* shadow registers per (reg, cluster) *)
    let next_reg = ref (Func.reg_count f) in
    let shadows : (Reg.t * int, Reg.t) Hashtbl.t = Hashtbl.create 32 in
    let shadow r c =
      match Hashtbl.find_opt shadows (r, c) with
      | Some s -> s
      | None ->
          let s = Reg.of_int !next_reg in
          incr next_reg;
          Hashtbl.replace shadows (r, c) s;
          s
    in
    (* which clusters need register r, per definition *)
    let clusters_needing def_id r =
      List.filter_map
        (fun (use_id, reg) ->
          if Reg.equal reg r then
            let c = cluster_of use_id in
            if c <> home_of r then Some c else None
          else None)
        (An.Reaching.uses_of_def reaching ~def_id)
      |> List.sort_uniq Int.compare
    in
    (* rewrite an operand of an op on cluster [c] *)
    let rewrite_operand c operand =
      match operand with
      | Op.Reg r when home_of r <> c -> Op.Reg (shadow r c)
      | _ -> operand
    in
    let rewrite_uses (op : Op.t) : Op.t =
      let c = cluster_of (Op.id op) in
      let rw = rewrite_operand c in
      let rwr r = match rw (Op.Reg r) with Op.Reg r' -> r' | _ -> assert false in
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
        | Op.Jmp _ as k -> k
        | Op.Ret v -> Op.Ret (Option.map rw v)
        | Op.Move { dst; src } -> Op.Move { dst; src = rwr src }
      in
      let guard =
        Option.map
          (fun { Op.greg; gsense } -> { Op.greg = rwr greg; gsense })
          (Op.guard op)
      in
      Op.make ?guard ~id:(Op.id op) kind
    in
    (* moves to insert after a definition of r on its home cluster *)
    let moves_for def_id r =
      let h = home_of r in
      List.concat_map
        (fun c ->
          (* fault injection: silently drop a required intercluster
             move — the consumer reads a stale shadow register *)
          if Fault.fire "move.drop" then []
          else begin
            let m = fresh_op (Op.Move { dst = shadow r c; src = r }) in
            Assignment.set_cluster cassign ~op_id:(Op.id m) c;
            Hashtbl.replace move_routes (Op.id m) (h, c);
            (* fault injection: duplicate the move onto the wrong
               cluster, splitting the shadow register's defs across
               clusters (violates the assignment invariant) *)
            if Fault.fire "move.dup" then begin
              let d =
                fresh_op (Op.Move { dst = shadow r c; src = r })
              in
              let wrong = (c + 1) mod cassign.Assignment.num_clusters in
              Assignment.set_cluster cassign ~op_id:(Op.id d) wrong;
              Hashtbl.replace move_routes (Op.id d) (h, wrong);
              [ m; d ]
            end
            else [ m ]
          end)
        (clusters_needing def_id r)
    in
    let entry_label = Block.label (Func.entry f) in
    let rewrite_block (b : Block.t) : Block.t =
      let param_moves =
        if Label.equal (Block.label b) entry_label then
          List.concat_map
            (fun p -> moves_for (An.Reaching.param_def p) p)
            (Func.params f)
        else []
      in
      let body =
        List.concat_map
          (fun op ->
            let op' = rewrite_uses op in
            let after =
              List.concat_map (fun r -> moves_for (Op.id op) r) (Op.defs op)
            in
            op' :: after)
          (Block.body b)
      in
      let term = rewrite_uses (Block.term b) in
      (* a terminator never defines a register, so no moves after it *)
      assert (Op.defs term = []);
      Block.v ~label:(Block.label b) ~body:(param_moves @ body) ~term
    in
    let blocks = List.map rewrite_block (Func.blocks f) in
    Func.v ~name:(Func.name f) ~params:(Func.params f) ~blocks
      ~reg_count:!next_reg
  in
  let funcs = List.map rewrite_func (Prog.funcs prog) in
  let cprog = Prog.v ~globals:(Prog.globals prog) ~funcs ~op_count:!next_op_id in
  (try Validate.check cprog
   with Validate.Invalid m ->
     invalid_arg ("Move_insert.apply produced invalid IR: " ^ m));
  Telemetry.incr "moves.inserted" ~by:(Hashtbl.length move_routes);
  { cprog; cassign; move_routes; schedule = None }

let schedule ~machine ?(objects_of = Schedule.no_objects) c =
  match c.schedule with
  | Some s when Schedule.built_for s ~machine ~objects_of -> s
  | _ ->
      let s =
        Schedule.build ~machine ~objects_of ~assign:c.cassign
          ~move_routes:c.move_routes c.cprog
      in
      c.schedule <- Some s;
      s
