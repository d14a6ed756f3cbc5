(** Access-pattern merging (paper Section 3.3.1).

    Builds the merged object/operation groups that all object
    partitioners work on:

    - when a single memory operation can access several data objects,
      those objects are merged (placing them apart would force network
      transfers no matter what);
    - when several memory operations access one data object, the
      operations are merged (and transitively any other objects they
      touch).

    The result is a partition of {objects} u {memory-touching ops} into
    groups: a group is the atomic unit of data placement.  [Alloc]
    operations count as memory-touching (a malloc call site belongs with
    its heap object).

    The optional slack-based merging the paper evaluated and rejected
    (merging low-slack dependent operations) is available behind
    [~merge_low_slack] for the ablation bench. *)

open Vliw_ir
module An = Vliw_analysis

type group = {
  id : int;
  objects : Data.obj list;
  mem_ops : int list;  (** op ids *)
  bytes : int;  (** total data size of the group's objects *)
}

type t = {
  groups : group array;
  group_of_obj : (Data.obj, int) Hashtbl.t;
  group_of_op : (int, int) Hashtbl.t;  (** only memory-touching ops *)
}

let compute ?(merge_low_slack = false) ?(machine : Vliw_machine.t option)
    (prog : Prog.t) (objtab : Data.table) (pt : An.Points_to.t) : t =
  let nobj = Data.table_length objtab in
  (* element layout: objects [0, nobj), then one slot per memory op *)
  let mem_ops =
    Prog.fold_ops
      (fun acc op -> if Op.touches_object op then Op.id op :: acc else acc)
      [] prog
    |> List.rev
  in
  let op_slot = Hashtbl.create 64 in
  List.iteri (fun i op_id -> Hashtbl.replace op_slot op_id (nobj + i)) mem_ops;
  let uf = Union_find.create (nobj + List.length mem_ops) in
  List.iter
    (fun op_id ->
      let slot = Hashtbl.find op_slot op_id in
      Data.Obj_set.iter
        (fun obj ->
          if Data.mem_obj objtab obj then
            Union_find.union uf slot (Data.id_of_obj objtab obj))
        (An.Points_to.objects_of pt op_id))
    mem_ops;
  (* optional: merge dependent low-slack memory operations (the variant
     the paper found counterproductive, Section 3.3.1) *)
  if merge_low_slack then begin
    let machine =
      match machine with
      | Some m -> m
      | None -> invalid_arg "Merge.compute: merge_low_slack needs ~machine"
    in
    List.iter
      (fun f ->
        List.iter
          (fun b ->
            let deps =
              Vliw_sched.Deps.build
                ~objects_of:(An.Points_to.objects_of pt)
                ~machine b
            in
            let asap, alap = Vliw_sched.Deps.asap_alap deps in
            Array.iteri
              (fun e d ->
                let u = deps.Vliw_sched.Deps.flow_use.(e) in
                let slack =
                  alap.(u) - asap.(d) - Vliw_sched.Deps.op_latency deps d
                in
                let od = Vliw_sched.Deps.op deps d
                and ou = Vliw_sched.Deps.op deps u in
                if
                  slack <= 1 && Op.touches_object od && Op.touches_object ou
                then
                  Union_find.union uf
                    (Hashtbl.find op_slot (Op.id od))
                    (Hashtbl.find op_slot (Op.id ou)))
              deps.Vliw_sched.Deps.flow_def)
          (Func.blocks f))
      (Prog.funcs prog)
  end;
  let gid, ngroups = Union_find.groups uf in
  let objects = Array.make ngroups [] in
  let ops = Array.make ngroups [] in
  let bytes = Array.make ngroups 0 in
  for i = nobj - 1 downto 0 do
    let g = gid.(i) in
    objects.(g) <- Data.obj_of_id objtab i :: objects.(g);
    bytes.(g) <- bytes.(g) + Data.size_of_id objtab i
  done;
  List.iter
    (fun op_id ->
      let g = gid.(Hashtbl.find op_slot op_id) in
      ops.(g) <- op_id :: ops.(g))
    (List.rev mem_ops);
  let groups =
    Array.init ngroups (fun id ->
        { id; objects = objects.(id); mem_ops = List.rev ops.(id); bytes = bytes.(id) })
  in
  let group_of_obj = Hashtbl.create (2 * nobj) in
  let group_of_op = Hashtbl.create 64 in
  Array.iter
    (fun g ->
      List.iter (fun o -> Hashtbl.replace group_of_obj o g.id) g.objects;
      List.iter (fun op -> Hashtbl.replace group_of_op op g.id) g.mem_ops)
    groups;
  { groups; group_of_obj; group_of_op }

let num_groups t = Array.length t.groups
let group t i = t.groups.(i)

(** Groups that actually contain data (a group can be ops-only when the
    points-to set of an op was empty). *)
let data_groups t =
  Array.to_list t.groups |> List.filter (fun g -> g.objects <> [])

let group_of_obj t obj = Hashtbl.find_opt t.group_of_obj obj
let group_of_op t op_id = Hashtbl.find_opt t.group_of_op op_id

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  Array.iter
    (fun g ->
      Fmt.pf ppf "group %d: %d B, objects [%a], %d mem ops@," g.id g.bytes
        Fmt.(list ~sep:comma Data.pp_obj)
        g.objects (List.length g.mem_ops))
    t.groups;
  Fmt.pf ppf "@]"
