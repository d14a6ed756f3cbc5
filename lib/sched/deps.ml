(** Block-local dependence graphs for scheduling.

    Nodes are the operations of one basic block in program order (the
    terminator last).  Edges carry the minimum issue distance in cycles:
    [succ.issue >= pred.issue + lat].

    Edge kinds:
    - flow (register def -> use): lat = latency of the producer;
    - anti (use -> redefinition): lat 0 (reads happen at issue, writes
      at completion, so same-cycle is safe);
    - output (def -> def): lat = latency of the first producer;
    - memory: store->load and store->store on possibly-aliasing objects,
      lat = store latency; load->store, lat 1 (conservative);
    - side effects: [Out]s are totally ordered; [Call]s and [Alloc]s are
      barriers for memory, I/O and allocation order;
    - control: every op must issue no later than the terminator (lat 0
      edges into it; data feeding the terminator keeps its flow
      latency).

    Every edge is found while its destination is the op being scanned,
    and the terminator's control edges come last, so each op's
    predecessor row is built in one pass and deduplicated with a stamp
    per source.  The graph is stored as CSR arrays. *)

open Vliw_ir

type t = {
  ops : Op.t array;
  latency : int array;
  pred_off : int array;
  pred_node : int array;
  pred_lat : int array;
  pred_flow : bool array;
  succ_off : int array;
  succ_node : int array;
  succ_lat : int array;
  succ_flow : bool array;
  flow_def : int array;
  flow_use : int array;
}

let num_ops t = Array.length t.ops
let op t i = t.ops.(i)
let op_latency t i = t.latency.(i)

(** Do two memory ops possibly touch a common object?  With no points-to
    information ([objects_of] returning empty sets) everything aliases. *)
let may_alias objs_a objs_b =
  Data.Obj_set.is_empty objs_a
  || Data.Obj_set.is_empty objs_b
  || not (Data.Obj_set.disjoint objs_a objs_b)

(* A growable int array. *)
type buf = { mutable a : int array; mutable len : int }

let buf_make n = { a = Array.make (max n 4) 0; len = 0 }

let buf_push b x =
  if b.len = Array.length b.a then begin
    let a = Array.make (2 * b.len) 0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

type reg_state = { mutable def : int; mutable uses_since_def : int list }

let build ?(objects_of = fun _ -> Data.Obj_set.empty) ?latency_of
    ~(machine : Vliw_machine.t) (block : Block.t) : t =
  let latency_of =
    match latency_of with
    | Some f -> f
    | None -> Op.latency machine.Vliw_machine.latencies
  in
  let ops = Array.of_list (Block.ops block) in
  let n = Array.length ops in
  let lats = Array.map latency_of ops in
  (* node [i]'s row runs from [pred_off.(i)] to the end of the buffers;
     a source already in it has [stamp] = [i] and sits at [pos] *)
  let pnode = buf_make (4 * n) and plat = buf_make (4 * n) in
  let pflow = buf_make (4 * n) in
  let pred_off = Array.make (n + 1) 0 in
  let stamp = Array.make n (-1) and pos = Array.make n 0 in
  let add ?(flow = false) src i lat =
    if src <> i then
      if stamp.(src) = i then begin
        let p = pos.(src) in
        if lat > plat.a.(p) then plat.a.(p) <- lat;
        if flow then pflow.a.(p) <- 1
      end
      else begin
        stamp.(src) <- i;
        pos.(src) <- pnode.len;
        buf_push pnode src;
        buf_push plat lat;
        buf_push pflow (if flow then 1 else 0)
      end
  in
  (* per register: its last def in the block, and its uses since *)
  let regs : (Reg.t, reg_state) Hashtbl.t = Hashtbl.create 32 in
  let state r =
    match Hashtbl.find_opt regs r with
    | Some s -> s
    | None ->
        let s = { def = -1; uses_since_def = [] } in
        Hashtbl.replace regs r s;
        s
  in
  let flow_def = buf_make n and flow_use = buf_make n in
  (* memory state since the last call barrier *)
  let objs = Array.make n Data.Obj_set.empty in
  let stores = buf_make 16 and mems = buf_make 16 in
  let is_store = Array.make n false in
  let last_out = ref (-1) and last_barrier = ref (-1) in
  let last_alloc = ref (-1) in
  for i = 0 to n - 1 do
    let o = ops.(i) in
    pred_off.(i) <- pnode.len;
    let uses = Op.uses o in
    (* flow: def -> this use *)
    List.iter
      (fun r ->
        let d = (state r).def in
        if d >= 0 then begin
          add ~flow:true d i lats.(d);
          buf_push flow_def d;
          buf_push flow_use i
        end)
      uses;
    List.iter
      (fun r ->
        let s = state r in
        s.uses_since_def <- i :: s.uses_since_def)
      uses;
    List.iter
      (fun r ->
        let s = state r in
        (* output: previous def -> this def *)
        if s.def >= 0 then add s.def i lats.(s.def);
        (* anti: uses since the previous def -> this def *)
        List.iter (fun u -> add u i 0) s.uses_since_def;
        s.def <- i;
        s.uses_since_def <- [])
      (Op.defs o);
    (* memory and side-effect ordering; a call barrier is a store that
       aliases everything *)
    (match Op.kind o with
    | Op.Load _ ->
        objs.(i) <- objects_of (Op.id o);
        for k = 0 to stores.len - 1 do
          let j = stores.a.(k) in
          if may_alias objs.(i) objs.(j) then add j i lats.(j)
        done;
        if !last_barrier >= 0 then add !last_barrier i lats.(!last_barrier);
        buf_push mems i
    | Op.Store _ ->
        objs.(i) <- objects_of (Op.id o);
        is_store.(i) <- true;
        for k = 0 to mems.len - 1 do
          let j = mems.a.(k) in
          if may_alias objs.(i) objs.(j) then
            add j i (if is_store.(j) then lats.(j) else 1)
        done;
        if !last_barrier >= 0 then add !last_barrier i lats.(!last_barrier);
        buf_push mems i;
        buf_push stores i
    | Op.Out _ ->
        if !last_out >= 0 then add !last_out i 1;
        last_out := i
    | Op.In _ -> () (* input reads are pure *)
    | Op.Alloc _ ->
        (* allocation order determines heap addresses *)
        if !last_alloc >= 0 then add !last_alloc i 1;
        last_alloc := i
    | Op.Call _ ->
        (* full barrier: after all prior memory, I/O and allocs *)
        for k = 0 to mems.len - 1 do
          let j = mems.a.(k) in
          add j i lats.(j)
        done;
        if !last_out >= 0 then add !last_out i 1;
        if !last_alloc >= 0 then add !last_alloc i 1;
        if !last_barrier >= 0 then begin
          add !last_barrier i lats.(!last_barrier);
          add !last_barrier i 1
        end;
        mems.len <- 0;
        stores.len <- 0;
        last_out := i;
        last_alloc := i;
        last_barrier := i
    | _ -> ());
    (* everything issues no later than the terminator *)
    if i = n - 1 then
      for j = 0 to n - 2 do
        add j i 0
      done
  done;
  pred_off.(n) <- pnode.len;
  let m = pnode.len in
  let pred_node = Array.sub pnode.a 0 m and pred_lat = Array.sub plat.a 0 m in
  let pred_flow = Array.init m (fun p -> pflow.a.(p) = 1) in
  (* successor rows, filled in ascending destination order: the
     terminator, the last node, ends every other node's row *)
  let succ_off = Array.make (n + 1) 0 in
  Array.iter (fun p -> succ_off.(p + 1) <- succ_off.(p + 1) + 1) pred_node;
  for i = 0 to n - 1 do
    succ_off.(i + 1) <- succ_off.(i + 1) + succ_off.(i)
  done;
  let succ_node = Array.make m 0 and succ_lat = Array.make m 0 in
  let succ_flow = Array.make m false in
  let fill = Array.sub succ_off 0 n in
  for i = 0 to n - 1 do
    for p = pred_off.(i) to pred_off.(i + 1) - 1 do
      let s = pred_node.(p) in
      let k = fill.(s) in
      succ_node.(k) <- i;
      succ_lat.(k) <- pred_lat.(p);
      succ_flow.(k) <- pred_flow.(p);
      fill.(s) <- k + 1
    done
  done;
  (* flow edges newest first *)
  let nf = flow_def.len in
  {
    ops;
    latency = lats;
    pred_off;
    pred_node;
    pred_lat;
    pred_flow;
    succ_off;
    succ_node;
    succ_lat;
    succ_flow;
    flow_def = Array.init nf (fun k -> flow_def.a.(nf - 1 - k));
    flow_use = Array.init nf (fun k -> flow_use.a.(nf - 1 - k));
  }

(** Longest path from each node to the end of the block (critical-path
    priority for list scheduling), measured in cycles including the
    node's own latency. *)
let heights t : int array =
  let n = num_ops t in
  let h = Array.make n 0 in
  for i = n - 1 downto 0 do
    let hi = ref t.latency.(i) in
    for k = t.succ_off.(i) to t.succ_off.(i + 1) - 1 do
      let v = t.succ_lat.(k) + h.(t.succ_node.(k)) in
      if v > !hi then hi := v
    done;
    h.(i) <- !hi
  done;
  h

(** Critical-path length of the whole block in cycles. *)
let critical_path t = Array.fold_left max 0 (heights t)

(** Per-node ASAP and ALAP issue times with the block critical path as
    the horizon: the RHOP coarsening weights and the low-slack merge
    read slack from them. *)
let asap_alap t : int array * int array =
  let n = num_ops t in
  let asap = Array.make n 0 in
  let horizon = ref 0 in
  for i = 0 to n - 1 do
    for k = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
      let v = asap.(t.pred_node.(k)) + t.pred_lat.(k) in
      if v > asap.(i) then asap.(i) <- v
    done;
    horizon := max !horizon (asap.(i) + t.latency.(i))
  done;
  let alap = Array.make n max_int in
  for i = n - 1 downto 0 do
    let a = ref (!horizon - t.latency.(i)) in
    for k = t.succ_off.(i) to t.succ_off.(i + 1) - 1 do
      let v = alap.(t.succ_node.(k)) - t.succ_lat.(k) in
      if v < !a then a := v
    done;
    alap.(i) <- !a
  done;
  (asap, alap)
