(** Region-based Hierarchical Operation Partitioning (RHOP), extended
    with locked memory operations (paper Section 3.4; original algorithm
    from Chu, Fan & Mahlke, PLDI 2003).

    The computation partitioner processes each function block by block
    (each block is a region) in layout order:

    - operations defining the same register are pre-merged so every
      register has one home cluster (a value lives in one register file);
    - operations whose register was homed by an earlier block, and memory
      operations whose data object has a home, are locked;
    - a multilevel scheme coarsens operations along low-slack (critical)
      flow edges, assigns clusters, and refines group by group using the
      schedule estimates of [Est];
    - uses of values produced in other blocks pull toward the producer's
      cluster ([Est] pins), and loop-carried same-register pairs couple.

    The result fills in the operation clusters of an [Assignment] whose
    object homes were fixed beforehand (or left empty for the
    unified-memory model). *)

open Vliw_ir
module D = Vliw_sched.Deps
module A = Vliw_sched.Assignment

(* stop coarsening a block at this many groups *)
let coarsen_until = 6

(* refinement passes per level *)
let max_passes = 4

(* ------------------------------------------------------------------ *)
(* Per-block partitioning                                              *)

(* [members] ascending: [Est.price] bounds the group's levels in that
   order *)
type group = { members : int list; lock : int option; size : int }

let group_lock_merge a b =
  match (a, b) with
  | None, x | x, None -> Ok x
  | Some x, Some y -> if x = y then Ok (Some x) else Error ()

(** Build level-0 groups: one per operation, merged over same-register
    definitions, with locks applied. *)
let base_groups (deps : D.t) ~(lock_of : int -> int option) : group list =
  let n = D.num_ops deps in
  let uf = Union_find.create n in
  let def_node : (Reg.t, int) Hashtbl.t = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    List.iter
      (fun r ->
        match Hashtbl.find_opt def_node r with
        | Some j -> Union_find.union uf i j
        | None -> Hashtbl.replace def_node r i)
      (Op.defs (D.op deps i))
  done;
  let gid, ngroups = Union_find.groups uf in
  let members = Array.make ngroups [] in
  for i = n - 1 downto 0 do
    members.(gid.(i)) <- i :: members.(gid.(i))
  done;
  Array.to_list
    (Array.map
       (fun ms ->
         let lock =
           List.fold_left
             (fun acc i ->
               match group_lock_merge acc (lock_of (Op.id (D.op deps i))) with
               | Ok l -> l
               | Error () ->
                   invalid_arg
                     "Rhop: conflicting cluster locks within a register web")
             None ms
         in
         { members = ms; lock; size = List.length ms })
       members)

(** Heavy-edge matching over groups using slack-derived edge weights.
    Returns the next (coarser) level, or [None] if no shrinkage. *)
let coarsen_level (deps : D.t) (edge_weight : (int * int) -> int)
    (groups : group array) : group array option =
  let ng = Array.length groups in
  let gid_of_node = Array.make (D.num_ops deps) 0 in
  Array.iteri
    (fun g grp -> List.iter (fun i -> gid_of_node.(i) <- g) grp.members)
    groups;
  (* aggregate flow-edge weights between groups *)
  let w : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun e d ->
      let u = deps.D.flow_use.(e) in
      let gd = gid_of_node.(d) and gu = gid_of_node.(u) in
      if gd <> gu then begin
        let key = if gd < gu then (gd, gu) else (gu, gd) in
        Hashtbl.replace w key
          (edge_weight (d, u)
          + Option.value ~default:0 (Hashtbl.find_opt w key))
      end)
    deps.D.flow_def;
  let adj = Array.make ng [] in
  Hashtbl.iter
    (fun (a, b) wt ->
      adj.(a) <- (b, wt) :: adj.(a);
      adj.(b) <- (a, wt) :: adj.(b))
    w;
  let matched = Array.make ng (-1) in
  (* visit heaviest groups first for stable, deterministic results *)
  let order = Array.init ng Fun.id in
  Array.sort (fun a b -> compare groups.(b).size groups.(a).size) order;
  Array.iter
    (fun g ->
      if matched.(g) = -1 then begin
        let best = ref (-1) and best_w = ref 0 in
        List.iter
          (fun (h, wt) ->
            (* only like-locked groups match: gluing free computation to a
               locked memory operation would freeze it on that cluster and
               refinement could never separate them again *)
            if
              matched.(h) = -1 && h <> g && wt > !best_w
              && groups.(g).lock = groups.(h).lock
            then begin
              best := h;
              best_w := wt
            end)
          adj.(g);
        if !best >= 0 then begin
          matched.(g) <- !best;
          matched.(!best) <- g
        end
        else matched.(g) <- g
      end)
    order;
  let seen = Array.make ng false in
  let next = ref [] in
  let shrunk = ref false in
  Array.iteri
    (fun g _ ->
      if not seen.(g) then begin
        seen.(g) <- true;
        let m = matched.(g) in
        if m <> g && not seen.(m) then begin
          seen.(m) <- true;
          shrunk := true;
          let lock =
            match group_lock_merge groups.(g).lock groups.(m).lock with
            | Ok l -> l
            | Error () -> assert false
          in
          next :=
            {
              members =
                List.merge Int.compare groups.(g).members groups.(m).members;
              lock;
              size = groups.(g).size + groups.(m).size;
            }
            :: !next
        end
        else next := groups.(g) :: !next
      end)
    groups;
  if !shrunk then Some (Array.of_list (List.rev !next)) else None

(** Greedy refinement of one level: repeatedly move whole groups to the
    cluster that lowers the estimated cost.  Each candidate cluster is
    priced by moving the group there in [est]'s tracked assignment and
    reading the estimate against the best so far: a candidate is kept
    only on a strict [<], so [Est.price] may stop at any value that
    shows it cannot be.  Returns the number of candidates priced. *)
let refine_level (est : Est.t) ~num_clusters (groups : group array)
    (cluster : int array) : int =
  let order = Array.init (Array.length groups) Fun.id in
  Array.sort (fun a b -> compare groups.(b).size groups.(a).size) order;
  let changed = ref true in
  let pass = ref 0 in
  let candidates = ref 0 in
  (* Once the group is back on its best cluster, the tracked estimate
     is that candidate's cost (or the standing one if none won), so it
     is carried to the next group rather than read again. *)
  let current_cost = ref (Est.current est) in
  while !changed && !pass < max_passes do
    changed := false;
    incr pass;
    Telemetry.incr "rhop.iterations";
    Array.iter
      (fun gi ->
        let g = groups.(gi) in
        if g.lock = None then begin
          let cur = cluster.(List.hd g.members) in
          let best_c = ref cur and best_cost = ref !current_cost in
          for c = 0 to num_clusters - 1 do
            if c <> cur then begin
              Est.move est g.members c;
              let cost = Est.price est ~best:!best_cost g.members in
              if cost < !best_cost then begin
                best_cost := cost;
                best_c := c
              end
            end
          done;
          candidates := !candidates + num_clusters - 1;
          Est.move est g.members !best_c;
          current_cost := !best_cost;
          if !best_c <> cur then changed := true
        end)
      order
  done;
  !candidates

let partition_block ~(machine : Vliw_machine.t) ~objects_of
    ~(lock_of : int -> int option) ~(reg_home : (Reg.t, int) Hashtbl.t)
    ~(live_out : Reg.Set.t) (block : Block.t) : (int * int) list =
  let deps = D.build ~objects_of ~machine block in
  let n = D.num_ops deps in
  (* pins and couplings for cross-block values *)
  let pins = ref [] and couplings = ref [] in
  let first_def : (Reg.t, int) Hashtbl.t = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    List.iter
      (fun r ->
        if not (Hashtbl.mem first_def r) then Hashtbl.replace first_def r i)
      (Op.defs (D.op deps i))
  done;
  let defined = Hashtbl.create 32 in
  let pin_seen = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    List.iter
      (fun r ->
        if not (Hashtbl.mem defined r) then
          match Hashtbl.find_opt reg_home r with
          | Some h ->
              if not (Hashtbl.mem pin_seen (i, r)) then begin
                Hashtbl.replace pin_seen (i, r) ();
                pins := (i, h) :: !pins
              end
          | None -> (
              (* loop-carried: defined later in this very block *)
              match Hashtbl.find_opt first_def r with
              | Some d when d > i -> couplings := (i, d) :: !couplings
              | _ -> ()))
        (Op.uses (D.op deps i));
    List.iter (fun r -> Hashtbl.replace defined r ()) (Op.defs (D.op deps i))
  done;
  let est =
    (* a cross-block move costs the machine's move latency *)
    Est.make ~machine ~deps ~pins:!pins ~couplings:!couplings ~live_out
      ~xmove_weight:(Vliw_machine.move_latency machine)
  in
  (* slack-based edge weights for coarsening *)
  let asap, alap = D.asap_alap deps in
  let cp = D.critical_path deps in
  let edge_weight (d, u) =
    let slack = alap.(u) - asap.(d) - D.op_latency deps d in
    max 1 (cp - slack)
  in
  (* multilevel: coarsen, then refine from coarsest to finest *)
  let level0 = Array.of_list (base_groups deps ~lock_of) in
  let rec build_levels acc groups =
    if Array.length groups <= coarsen_until then groups :: acc
    else
      match coarsen_level deps edge_weight groups with
      | None -> groups :: acc
      | Some next -> build_levels (groups :: acc) next
  in
  let levels = build_levels [] level0 in
  if Telemetry.is_enabled () then begin
    Telemetry.span_arg "ops" (string_of_int n);
    Telemetry.span_arg "levels" (string_of_int (List.length levels))
  end;
  (* coarsest first *)
  let cluster = Array.make n 0 in
  Array.iter
    (fun (g : group) ->
      match g.lock with
      | Some c -> List.iter (fun i -> cluster.(i) <- c) g.members
      | None -> ())
    level0;
  Est.load est cluster;
  let num_clusters = Vliw_machine.num_clusters machine in
  let candidates =
    List.fold_left
      (fun acc groups -> acc + refine_level est ~num_clusters groups cluster)
      0 levels
  in
  Telemetry.incr ~by:candidates "rhop.candidates";
  Telemetry.incr ~by:(Est.relevels est) "rhop.relevels";
  Telemetry.incr ~by:(Est.pruned est) "rhop.pruned";
  List.init n (fun i -> (Op.id (D.op deps i), cluster.(i)))

(* ------------------------------------------------------------------ *)
(* Whole-program driver                                                *)

(** Partition one block against the current [reg_home] state: build the
    lock function (memory homes plus registers homed by earlier blocks),
    the block's live-out set, and run [partition_block].  Reads
    [reg_home] but never writes it — the caller applies results — so
    independent blocks can run concurrently against a quiescent
    table. *)
let block_result ~machine ~objects_of ~lock_of
    ~(reg_home : (Reg.t, int) Hashtbl.t) ~cfg ~liveness f (b : Block.t) :
    (int * int) list =
  let op_by_id : (int, Op.t) Hashtbl.t =
    Hashtbl.create (List.length (Block.ops b))
  in
  List.iter (fun o -> Hashtbl.replace op_by_id (Op.id o) o) (Block.ops b);
  (* locks: memory homes plus registers homed by earlier blocks *)
  let lock_with_reg op_id =
    match lock_of op_id with
    | Some c -> Some c
    | None -> (
        (* find the op to inspect its defs *)
        match Hashtbl.find_opt op_by_id op_id with
        | None -> None
        | Some o ->
            List.fold_left
              (fun acc r ->
                match (acc, Hashtbl.find_opt reg_home r) with
                | Some c, Some c' when c <> c' ->
                    invalid_arg
                      "Rhop.partition: register re-homed across blocks"
                | Some c, _ -> Some c
                | None, h -> h)
              None (Op.defs o))
  in
  let live_out =
    Vliw_analysis.Liveness.live_out liveness
      (Vliw_analysis.Cfg.block_index cfg (Block.label b))
  in
  Telemetry.incr "rhop.regions";
  let args =
    if Telemetry.is_enabled () then
      [ ("func", Func.name f); ("label", Label.to_string (Block.label b)) ]
    else []
  in
  Telemetry.with_span "rhop-region" ~args (fun () ->
      partition_block ~machine ~objects_of ~lock_of:lock_with_reg ~reg_home
        ~live_out b)

(** Commit one block's result: write its op clusters into [assign] and
    record the homes of the registers it defines.  Must run in layout
    order — [reg_home] is last-write-wins across blocks. *)
let apply_result ~(reg_home : (Reg.t, int) Hashtbl.t) (assign : A.t)
    (b : Block.t) (result : (int * int) list) : unit =
  List.iter (fun (op_id, c) -> A.set_cluster assign ~op_id c) result;
  (* record register homes for later blocks *)
  List.iter
    (fun o ->
      match A.cluster_of_opt assign ~op_id:(Op.id o) with
      | None -> ()
      | Some c ->
          List.iter (fun r -> Hashtbl.replace reg_home r c) (Op.defs o))
    (Block.ops b)

(** Per-function driver: blocks are scheduled in dependency waves.
    Block [j] depends on an earlier block [i] iff [i] defines a register
    that [j] defines or uses — exactly the [reg_home] entries
    [block_result] can observe for [j] (its pins read homes of used
    registers, its locks read homes of defined ones).  A block's depth
    is one more than the deepest block it depends on, or 0.  Of the
    earlier blocks that define a register, the last is the deepest: it
    depends on every other one.  So one pass in layout order finds the
    depths from each register's last defining block so far.  Each wave
    partitions its blocks concurrently against the quiescent [reg_home]
    table, then results are committed in layout order on the calling
    domain, reproducing the block-by-block [reg_home] evolution
    (including last-write-wins and the re-homing check).  The
    assignment is therefore the same for any pool width. *)
let partition_func pool ~machine ~objects_of ~lock_of (assign : A.t) f :
    unit =
  let cfg = Vliw_analysis.Cfg.of_func f in
  let liveness = Vliw_analysis.Liveness.compute cfg in
  let reg_home : (Reg.t, int) Hashtbl.t = Hashtbl.create 64 in
  let blocks = Array.of_list (Func.blocks f) in
  let nb = Array.length blocks in
  (* the depth of each register's last defining block so far *)
  let def_depth : (Reg.t, int) Hashtbl.t = Hashtbl.create 64 in
  let depth = Array.make nb 0 in
  Array.iteri
    (fun j b ->
      let deeper r =
        match Hashtbl.find_opt def_depth r with
        | Some d when d >= depth.(j) -> depth.(j) <- d + 1
        | _ -> ()
      in
      let ops = Block.ops b in
      List.iter
        (fun o ->
          List.iter deeper (Op.defs o);
          List.iter deeper (Op.uses o))
        ops;
      List.iter
        (fun o ->
          List.iter (fun r -> Hashtbl.replace def_depth r depth.(j)) (Op.defs o))
        ops)
    blocks;
  let waves = Array.make (1 + Array.fold_left max 0 depth) [] in
  for j = nb - 1 downto 0 do
    waves.(depth.(j)) <- j :: waves.(depth.(j))
  done;
  Array.iter
    (fun wave ->
      let wave = Array.of_list wave in
      let results =
        Par.map pool ~n:(Array.length wave) (fun k ->
            block_result ~machine ~objects_of ~lock_of ~reg_home ~cfg
              ~liveness f blocks.(wave.(k)))
      in
      (* commit in layout order: wave indices are ascending by block *)
      Array.iteri
        (fun k result ->
          apply_result ~reg_home assign blocks.(wave.(k)) result)
        results)
    waves

(** Partition all computation of [prog], filling [assign]'s op clusters.
    [lock_of] gives mandatory clusters (memory operations under a data
    partition); object homes in [assign] are the caller's business.
    Blocks of a dependency wave ([partition_func]) run concurrently on
    [pool]; without one everything runs inline. *)
let partition ?pool ~(machine : Vliw_machine.t)
    ~(objects_of : int -> Data.Obj_set.t) ~(lock_of : int -> int option)
    (prog : Prog.t) (assign : A.t) : unit =
  Telemetry.with_span "rhop" @@ fun () ->
  let run pool =
    List.iter
      (partition_func pool ~machine ~objects_of ~lock_of assign)
      (Prog.funcs prog)
  in
  match pool with Some pool -> run pool | None -> Par.with_pool ~domains:1 run
