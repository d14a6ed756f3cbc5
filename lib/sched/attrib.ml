(** Cycle attribution (see attrib.mli for the category semantics).

    The classification is a deterministic function of a block's final
    schedule: each entry carries its issue cycle, the cycle its operands
    were ready and its latency, as the scheduler computed them.  The
    simulator executes the same schedules, so the account covers
    exactly the cycles it counts.

    Per-cycle rules, first match wins:
    1. a data-ready memory op was held back       -> Mem_serialize
    2. a data-ready intercluster move was held    -> Transfer_wait
    3. any other data-ready op was held back      -> Issue_stall
    4. a non-move op issued                       -> Useful
    5. only intercluster moves issued             -> Transfer_wait
    6. idle, an intercluster move is in flight    -> Transfer_wait
    7. idle, a memory result is in flight         -> Mem_serialize
    8. otherwise                                  -> Empty

    "Held back" means the op's operands were ready ([ready <= t]) but
    it issued later — with a greedy list scheduler that can only be a
    resource (function-unit or bus) limit. *)

open Vliw_ir

type category = Mem_serialize | Transfer_wait | Issue_stall | Useful | Empty

let categories = [ Mem_serialize; Transfer_wait; Issue_stall; Useful; Empty ]
let num_categories = List.length categories

let category_index = function
  | Mem_serialize -> 0
  | Transfer_wait -> 1
  | Issue_stall -> 2
  | Useful -> 3
  | Empty -> 4

let category_name = function
  | Mem_serialize -> "mem_serialize"
  | Transfer_wait -> "transfer_wait"
  | Issue_stall -> "issue_stall"
  | Useful -> "useful"
  | Empty -> "empty"

let category_of_index i =
  match List.nth_opt categories i with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Attrib.category_of_index: %d" i)

(** One scheduled block's account, weighted by [of_clustered]. *)
type block_account = {
  bk_length : int;  (** schedule length; equals the category sum *)
  bk_categories : int array;  (** cycles per category *)
  bk_link_moves : ((int * int) * int) list;
      (** static intercluster moves per (src, dst) route *)
  bk_move_objs : (int, Data.obj list) Hashtbl.t;
      (** move op id -> data objects whose values the move carries *)
  bk_remote_mem : (int, unit) Hashtbl.t;
      (** memory op ids whose value or address crosses clusters *)
}

(* ------------------------------------------------------------------ *)
(* Per-object move attribution                                         *)

(** Which objects' data does each intercluster move carry?  Follow the
    moved register back to its defining memory operations and forward
    to its consuming memory operations (resolving through chained
    moves), and take those operations' points-to sets.  A move that
    only carries compute flow attributes to nothing. *)
let attribute_moves ~objects_of ~is_icm (block : Block.t) :
    (int, Data.obj list) Hashtbl.t * (int, unit) Hashtbl.t =
  let ops = Block.ops block in
  let moves =
    List.filter_map
      (fun op ->
        match Op.kind op with
        | Op.Move { dst; src } when is_icm (Op.id op) ->
            Some (Op.id op, src, dst)
        | _ -> None)
      ops
  in
  let non_moves = List.filter (fun op -> not (Op.is_move op)) ops in
  let moves_by_src = Hashtbl.create 8 and moves_by_dst = Hashtbl.create 8 in
  List.iter
    (fun (id, src, dst) ->
      Hashtbl.add moves_by_src src (id, dst);
      Hashtbl.add moves_by_dst dst (id, src))
    moves;
  (* objects whose data flows into [r]: non-move defs' points-to sets,
     chasing chained moves backwards *)
  let rec objs_into r seen =
    if Reg.Set.mem r seen then Data.Obj_set.empty
    else
      let seen = Reg.Set.add r seen in
      let direct =
        List.fold_left
          (fun acc op ->
            if List.exists (Reg.equal r) (Op.defs op) then
              Data.Obj_set.union acc (objects_of (Op.id op))
            else acc)
          Data.Obj_set.empty non_moves
      in
      List.fold_left
        (fun acc (_, src) -> Data.Obj_set.union acc (objs_into src seen))
        direct
        (Hashtbl.find_all moves_by_dst r)
  in
  (* objects whose operations consume [r]: non-move users' points-to
     sets, chasing chained moves forwards *)
  let rec objs_from r seen =
    if Reg.Set.mem r seen then Data.Obj_set.empty
    else
      let seen = Reg.Set.add r seen in
      let direct =
        List.fold_left
          (fun acc op ->
            if List.exists (Reg.equal r) (Op.uses op) then
              Data.Obj_set.union acc (objects_of (Op.id op))
            else acc)
          Data.Obj_set.empty non_moves
      in
      List.fold_left
        (fun acc (_, dst) -> Data.Obj_set.union acc (objs_from dst seen))
        direct
        (Hashtbl.find_all moves_by_src r)
  in
  let move_objs = Hashtbl.create 8 in
  List.iter
    (fun (id, src, dst) ->
      let objs =
        Data.Obj_set.union
          (objs_into src Reg.Set.empty)
          (objs_from dst Reg.Set.empty)
      in
      Hashtbl.replace move_objs id (Data.Obj_set.elements objs))
    moves;
  (* memory ops whose value or address crosses the bus *)
  let remote_mem = Hashtbl.create 8 in
  List.iter
    (fun op ->
      if Op.is_mem op then
        let forwarded =
          List.exists (fun r -> Hashtbl.mem moves_by_src r) (Op.defs op)
        in
        let fed =
          List.exists (fun r -> Hashtbl.mem moves_by_dst r) (Op.uses op)
        in
        if forwarded || fed then Hashtbl.replace remote_mem (Op.id op) ())
    ops;
  (move_objs, remote_mem)

(* ------------------------------------------------------------------ *)
(* Per-cycle classification                                            *)

let account_block ~(move_routes : (int, int * int) Hashtbl.t) ~objects_of
    (block : Block.t) (sched : List_sched.t) : block_account =
  let len = List_sched.length sched in
  let entries = List_sched.entries sched in
  (* per-cycle facts *)
  let blocked_mem = Array.make (max 1 len) false in
  let blocked_move = Array.make (max 1 len) false in
  let blocked_other = Array.make (max 1 len) false in
  let issued_nonmove = Array.make (max 1 len) false in
  let issued_move = Array.make (max 1 len) false in
  let inflight_move = Array.make (max 1 len) false in
  let inflight_mem = Array.make (max 1 len) false in
  Array.iter
    (fun (e : List_sched.entry) ->
      let icm = e.List_sched.cluster = None in
      let mem = Op.fu_kind e.List_sched.op = Vliw_machine.FU_memory in
      let issue = e.List_sched.cycle in
      if icm then issued_move.(issue) <- true
      else issued_nonmove.(issue) <- true;
      for t = e.List_sched.ready to issue - 1 do
        if icm then blocked_move.(t) <- true
        else if mem then blocked_mem.(t) <- true
        else blocked_other.(t) <- true
      done;
      for t = issue + 1 to min (len - 1) (issue + e.List_sched.lat - 1) do
        if icm then inflight_move.(t) <- true
        else if mem then inflight_mem.(t) <- true
      done)
    entries;
  let counts = Array.make num_categories 0 in
  for t = 0 to len - 1 do
    let c =
      if blocked_mem.(t) then Mem_serialize
      else if blocked_move.(t) then Transfer_wait
      else if blocked_other.(t) then Issue_stall
      else if issued_nonmove.(t) then Useful
      else if issued_move.(t) then Transfer_wait
      else if inflight_move.(t) then Transfer_wait
      else if inflight_mem.(t) then Mem_serialize
      else Empty
    in
    counts.(category_index c) <- counts.(category_index c) + 1
  done;
  let link_counts = Hashtbl.create 4 in
  Array.iter
    (fun (e : List_sched.entry) ->
      match Hashtbl.find_opt move_routes (Op.id e.List_sched.op) with
      | None -> ()
      | Some route ->
          Hashtbl.replace link_counts route
            (1 + Option.value ~default:0 (Hashtbl.find_opt link_counts route)))
    entries;
  let bk_link_moves =
    Hashtbl.fold (fun r c acc -> (r, c) :: acc) link_counts []
    |> List.sort compare
  in
  let bk_move_objs, bk_remote_mem =
    attribute_moves ~objects_of ~is_icm:(Hashtbl.mem move_routes) block
  in
  {
    bk_length = len;
    bk_categories = counts;
    bk_link_moves;
    bk_move_objs;
    bk_remote_mem;
  }

(* ------------------------------------------------------------------ *)
(* Program totals                                                      *)

type access = { acc_local : int; acc_remote : int }

type totals = {
  t_cycles : int;
  t_categories : int array;
  t_moves : int;
  t_link_moves : ((int * int) * int) list;
  t_obj_moves : (Data.obj * int) list;
  t_unattributed_moves : int;
  t_obj_access : (Data.obj * access) list;
}

let check_identity t =
  let sum = Array.fold_left ( + ) 0 t.t_categories in
  if sum = t.t_cycles then None
  else
    Some
      (Fmt.str "attribution identity broken: %d cycles but categories sum to %d"
         t.t_cycles sum)

let of_clustered ~(machine : Vliw_machine.t) (c : Move_insert.clustered)
    ~(profile : Vliw_interp.Profile.t) ?(objects_of = Schedule.no_objects) ()
    : totals =
  Telemetry.with_span "attribute" @@ fun () ->
  let cycles = ref 0 in
  let cats = Array.make num_categories 0 in
  let moves = ref 0 in
  let links = Hashtbl.create 4 in
  let obj_moves = Hashtbl.create 16 in
  let unattributed = ref 0 in
  let obj_access : (Data.obj, int ref * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let access_cell o =
    match Hashtbl.find_opt obj_access o with
    | Some cell -> cell
    | None ->
        let cell = (ref 0, ref 0) in
        Hashtbl.replace obj_access o cell;
        cell
  in
  Schedule.iter
    (fun f b sched ->
      let bk =
        account_block ~move_routes:c.Move_insert.move_routes ~objects_of b
          sched
      in
      let count =
        Vliw_interp.Profile.block_count profile ~func:(Func.name f)
          ~label:(Block.label b)
      in
      cycles := !cycles + (bk.bk_length * count);
      Array.iteri
        (fun i n -> cats.(i) <- cats.(i) + (n * count))
        bk.bk_categories;
      List.iter
        (fun (route, n) ->
          moves := !moves + (n * count);
          Hashtbl.replace links route
            ((n * count)
            + Option.value ~default:0 (Hashtbl.find_opt links route)))
        bk.bk_link_moves;
      Hashtbl.iter
        (fun _move_id objs ->
          match objs with
          | [] -> unattributed := !unattributed + count
          | objs ->
              List.iter
                (fun o ->
                  Hashtbl.replace obj_moves o
                    (count
                    + Option.value ~default:0 (Hashtbl.find_opt obj_moves o)))
                objs)
        bk.bk_move_objs;
      List.iter
        (fun op ->
          if Op.is_mem op then
            let remote = Hashtbl.mem bk.bk_remote_mem (Op.id op) in
            List.iter
              (fun (o, n) ->
                let local_c, remote_c = access_cell o in
                if remote then remote_c := !remote_c + n
                else local_c := !local_c + n)
              (Vliw_interp.Profile.accesses_of profile ~op_id:(Op.id op)))
        (Block.ops b))
    (Move_insert.schedule ~machine ~objects_of c);
  {
    t_cycles = !cycles;
    t_categories = cats;
    t_moves = !moves;
    t_link_moves =
      Hashtbl.fold (fun r n acc -> (r, n) :: acc) links [] |> List.sort compare;
    t_obj_moves =
      Hashtbl.fold (fun o n acc -> (o, n) :: acc) obj_moves []
      |> List.sort (fun (oa, na) (ob, nb) ->
             match compare nb na with 0 -> Data.compare_obj oa ob | c -> c);
    t_unattributed_moves = !unattributed;
    t_obj_access =
      Hashtbl.fold
        (fun o (l, r) acc -> (o, { acc_local = !l; acc_remote = !r }) :: acc)
        obj_access []
      |> List.sort (fun (a, _) (b, _) -> Data.compare_obj a b);
  }
