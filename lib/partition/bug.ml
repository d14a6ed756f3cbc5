(** Bottom-Up Greedy (BUG) computation partitioning.

    The first clustering algorithm, from the Bulldog compiler (Ellis,
    1985), cited by the paper as the baseline lineage of all cluster
    assignment work.  This is a practical per-block rendition: operations
    are visited in dependence (topological) order and greedily assigned
    to the cluster that minimizes their estimated issue time given

    - where their operands live (a foreign operand costs the move
      latency),
    - how busy each cluster's function units already are,
    - where values produced in earlier blocks live (pins), and
    - any mandatory placement (memory operations under a data partition,
      register webs homed by earlier blocks).

    It shares RHOP's interface so the experiment harness can swap the
    computation partitioner under any object partitioner — the
    `ablate-bug` bench target compares the two, reproducing the paper's
    implicit claim that region-level RHOP beats greedy assignment. *)

open Vliw_ir
module D = Vliw_sched.Deps
module A = Vliw_sched.Assignment

let partition_block ~(machine : Vliw_machine.t) ~objects_of
    ~(lock_of : int -> int option) ~(reg_home : (Reg.t, int) Hashtbl.t)
    (block : Block.t) : (int * int) list =
  let deps = D.build ~objects_of ~machine block in
  let n = D.num_ops deps in
  let num_clusters = Vliw_machine.num_clusters machine in
  let ml = Vliw_machine.move_latency machine in
  let cluster = Array.make n (-1) in
  (* per-cluster, per-fu-kind usage so far (greedy resource estimate) *)
  let usage = Array.make_matrix num_clusters Vliw_machine.fu_kind_count 0 in
  (* completion estimate per node *)
  let done_at = Array.make n 0 in
  (* same-register webs must agree; first assignment wins *)
  let web_home : (Reg.t, int) Hashtbl.t = Hashtbl.copy reg_home in
  (* topological order = index order (Deps edges all go forward) *)
  for i = 0 to n - 1 do
    let op = D.op deps i in
    let fu = Vliw_machine.fu_kind_index (Op.fu_kind op) in
    let forced =
      match lock_of (Op.id op) with
      | Some c -> Some c
      | None ->
          List.fold_left
            (fun acc r ->
              match (acc, Hashtbl.find_opt web_home r) with
              | Some c, Some c' when c <> c' ->
                  invalid_arg "Bug: conflicting web homes"
              | Some c, _ -> Some c
              | None, h -> h)
            None (Op.defs op)
    in
    let ready_on c =
      (* operands: local flow producers + cross-block pins *)
      let t = ref 0 in
      for k = deps.D.pred_off.(i) to deps.D.pred_off.(i + 1) - 1 do
        let p = deps.D.pred_node.(k) and lat = deps.D.pred_lat.(k) in
        let eff =
          if deps.D.pred_flow.(k) && cluster.(p) <> c then lat + ml else lat
        in
        t := max !t (done_at.(p) - D.op_latency deps p + eff)
      done;
      List.iter
        (fun r ->
          match Hashtbl.find_opt web_home r with
          | Some h when h <> c ->
              (* a live-in value homed elsewhere must be moved over *)
              t := max !t ml
          | _ -> ())
        (Op.uses op);
      (* resource pressure: each prior same-kind op on c delays by one
         issue slot per unit *)
      let cap =
        max 1
          (Vliw_machine.fu_count
             (Vliw_machine.cluster_of machine c)
             (Op.fu_kind op))
      in
      max !t (usage.(c).(fu) / cap)
    in
    let best =
      match forced with
      | Some c -> c
      | None ->
          let best = ref 0 and best_t = ref max_int in
          for c = 0 to num_clusters - 1 do
            let t = ready_on c in
            if t < !best_t then begin
              best_t := t;
              best := c
            end
          done;
          !best
    in
    cluster.(i) <- best;
    usage.(best).(fu) <- usage.(best).(fu) + 1;
    done_at.(i) <- ready_on best + D.op_latency deps i;
    List.iter (fun r -> Hashtbl.replace web_home r best) (Op.defs op)
  done;
  (* export web homes discovered in this block *)
  Hashtbl.iter (fun r c -> Hashtbl.replace reg_home r c) web_home;
  List.init n (fun i -> (Op.id (D.op deps i), cluster.(i)))

(** Drop-in replacement for [Rhop.partition]. *)
let partition ~(machine : Vliw_machine.t)
    ~(objects_of : int -> Data.Obj_set.t) ~(lock_of : int -> int option)
    (prog : Prog.t) (assign : A.t) : unit =
  List.iter
    (fun f ->
      let reg_home : (Reg.t, int) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun b ->
          let result =
            partition_block ~machine ~objects_of ~lock_of ~reg_home b
          in
          List.iter (fun (op_id, c) -> A.set_cluster assign ~op_id c) result)
        (Func.blocks f))
    (Prog.funcs prog)
