(** Cycle-level simulator for scheduled, clustered programs.

    Executes the clustered program's schedule ([Move_insert.schedule],
    the one the static model [Perf] sums) with explicit timing: an
    operation issued at cycle [t] reads its registers as of [t] and
    commits its result at [t + latency].  The simulator is the
    validation substrate for the whole pipeline:

    - if move insertion or the scheduler breaks a dependence, the stale
      read changes the program's observable output (compared against the
      reference interpreter) or trips the latency checker;
    - function-unit and bus over-subscription is detected per cycle, in
      every executed block;
    - the accumulated cycle count is the sum of schedule lengths over
      the block visits it executed, so its equality with
      [Perf.total_cycles] (the same lengths weighted by the profile)
      checks the executed block visits against the profile.

    Cross-block and cross-call in-flight latencies are cut: pending
    writes commit when the block ends (the static model makes the same
    approximation; see DESIGN.md).

    The scheduler records each entry's ready cycle, latency and hops
    ([List_sched.entry]); the simulator reads only the op, issue cycle
    and cluster, and works latencies and routes out again from the
    machine and the program's move routes, so that its checks test the
    scheduler's record instead of trusting it.  Cycle attribution is
    [Attrib]'s alone.

    The engine is flat and an executed entry allocates nothing.  Values
    are held unboxed in the interpreter's tagged cells
    ([Interp.cells]).  Each function's block schedules are decoded once
    per run, at its first call, into arrays of entries over slot
    indices, with effective latencies and resolved successors and
    callees; each block is resource-checked at its first visit.  A
    frame's slots are the function's registers, one slot per immediate
    operand, preloaded from the function's template, and a slot for the
    returned value.  In-flight writes sit in an array queue kept in
    commit order, their payloads in cells of their own.  Memory is one
    [cells] per data object, found by binary search over the objects'
    base addresses; each memory op caches the object it touched last,
    so the search runs only when the op moves to another object.
    Nothing here is shared with the interpreter except the value type,
    its tagged cells and the op evaluators, so the two stay independent
    oracles.

    The schedule fixes when every write commits: a write issued by
    entry [k] commits just before the first later entry whose cycle
    reaches [cycle + lat], or at block end.  So the decoder marks a
    write direct when no later entry reads or writes its register
    before then, and at run time a direct write goes straight into the
    register file unless a write to the same register is still queued:
    nothing can tell the difference.  Only the other writes, and
    transfers the [sim.move-latency] fault stretches, are queued, and a
    read checks the queue only while a write to its register is in
    flight. *)

open Vliw_ir
module I = Vliw_interp.Interp
module Cfg = Vliw_analysis.Cfg

exception Sim_error of string

let sim_error fmt = Fmt.kstr (fun s -> raise (Sim_error s)) fmt

type result = {
  outputs : I.value list;
  cycles : int;  (** sum of block schedule lengths over the execution *)
  dynamic_moves : int;
}

(* ------------------------------------------------------------------ *)
(* Decoded code                                                        *)

(** A data object: a global or one heap block.  [cells] holds its words
    and grows to cover the highest word written; words past its end
    read 0. *)
type obj = { base : int; bytes : int; cells : I.cells }

(** A memory op's cache: the object it touched last. *)
type mem = { mutable last : obj }

(* An empty object, which no address falls inside: a fresh cache
   misses. *)
let no_obj = { base = 0; bytes = 0; cells = I.cells 0 }

(** Operands are slot indices: a register, or an immediate's slot. *)
type instr =
  | Ibin of Op.ibinop * int * int * int
  | Fbin of Op.fbinop * int * int * int
  | Un of Op.unop * int * int
  | Move of int * int  (** destination, source *)
  | Load of int * int * int * mem  (** destination, base, offset *)
  | Store of int * int * int * mem  (** source, base, offset *)
  | Addr of int * int
  | Alloc of int * int
  | In of int * int
  | Out of int
  | Call of int * func * int array  (** destination, [-1] for none *)
  | Jmp of int  (** successor block index *)
  | Cbr of int * int * int
  | Ret of int  (** the returned slot, [-1] for none *)

and entry = {
  cycle : int;
  instr : instr;
  lat : int;  (** route latency for a routed move, op latency otherwise *)
  routed : bool;  (** an intercluster move: the sim fault points apply *)
  greg : int;  (** guard register, [-1] when unguarded *)
  gsense : bool;
  wreg : int;  (** the register written, [-1] for none *)
  mutable direct : bool;
      (** no later entry of the block reads or writes [wreg] before
          this write commits *)
}

and code = {
  label : Label.t;
  sched : List_sched.t;
  length : int;  (** the schedule's cycles *)
  entries : entry array;
  mutable checked : bool;  (** resources checked, at the first visit *)
}

(** A function, with its CFG and block schedules from the program's
    schedule. *)
and func = {
  func : Func.t;
  cfg : Cfg.t;
  scheds : List_sched.t array;  (** by CFG block index *)
  params : int array;
  mutable body : body option;  (** decoded at the first call *)
}

(** A function's decoded blocks, by CFG block index, and its frames'
    layout. *)
and body = {
  code : code array;
  template : I.cells;
      (** a fresh frame: registers int 0, then the immediates, then the
          return slot *)
  ret_slot : int;
}

(* ------------------------------------------------------------------ *)
(* Machine state                                                       *)

(** An in-flight write; its payload is slot [slot] of the state's
    [pending] cells, [seq] its push order, for the latency message. *)
type pending = {
  mutable reg : int;
  mutable ready : int;
  mutable issued : int;
  mutable seq : int;
  slot : int;
}

let free_slots ~from n =
  Array.init n (fun i ->
      { reg = 0; ready = 0; issued = 0; seq = 0; slot = from + i })

type state = {
  schedule : Schedule.t;
  machine : Vliw_machine.t;
  move_routes : (int, int * int) Hashtbl.t;
  funcs : (string, func) Hashtbl.t;
  global_addrs : (string, int) Hashtbl.t;
  mutable objs : obj array;  (** sorted by base; bases never overlap *)
  mutable nobjs : int;
  misaligned : (int, I.value) Hashtbl.t;
      (** cells at addresses that are not a word offset into their
          object: each is its own cell, as in a byte-addressed memory *)
  mutable heap_next : int;
  input : int array;
  mutable outputs_rev : I.value list;
  mutable cycles : int;
  mutable moves : int;
  mutable fuel : int;
  (* In-flight writes of the running block sit at [q_head, q_top) in
     commit order: by (ready cycle, issue cycle), equal keys newest
     first.  A callee's blocks queue above their caller's.  Slots from
     [q_top] on are free records, reused by later writes; each record
     keeps its payload slot. *)
  mutable q : pending array;
  mutable q_head : int;
  mutable q_top : int;
  mutable pushes : int;
  pending : I.cells;
  scratch : I.cells;  (** one slot, for a value the simulator makes *)
  (* decoder scratch: the next entry to access each slot, valid where
     [stamp] is [decodes] *)
  mutable next_access : int array;
  mutable stamp : int array;
  mutable decodes : int;
}

(** One activation: its slots, per slot how many writes to it are in
    flight, where its running block goes next ([-2] until the
    terminator runs, [-1] after a return) and whether it returned a
    value ([ret] is the return slot then, [-1] otherwise). *)
type frame = {
  fn : func;
  body : body;
  regs : I.cells;
  inflight : int array;
  mutable next : int;
  mutable ret : int;
}

(* [Data.word_bytes] as a literal, so that word offsets compile to
   shifts instead of divisions *)
let word = 8
let () = assert (word = Data.word_bytes)

let add_obj st o =
  if st.nobjs = Array.length st.objs then
    st.objs <- Array.append st.objs (Array.make (max 8 st.nobjs) o);
  st.objs.(st.nobjs) <- o;
  st.nobjs <- st.nobjs + 1

(* The interpreter's cell accessors for the hot paths, written out here
   because nothing inlines across modules: calls would cost the
   simulator about a tenth of its time.  A float where an int is
   expected goes to [I.get_int], which raises.  The three arrays of a
   [cells] have one length, so each accessor checks the bounds of one
   of them. *)
let[@inline] get_int (c : I.cells) k =
  let i = c.I.ints.(k) in
  if Bytes.unsafe_get c.I.tags k = I.int_tag then i else I.get_int c k

let[@inline] set_int (c : I.cells) k i =
  c.I.ints.(k) <- i;
  Bytes.unsafe_set c.I.tags k I.int_tag

let[@inline] copy (src : I.cells) j (dst : I.cells) k =
  let i = src.I.ints.(j) in
  dst.I.ints.(k) <- i;
  Array.unsafe_set dst.I.floats k (Array.unsafe_get src.I.floats j);
  Bytes.unsafe_set dst.I.tags k (Bytes.unsafe_get src.I.tags j)

let init machine (c : Move_insert.clustered) ~objects_of ~input ~fuel =
  let prog = c.Move_insert.cprog in
  let st =
    {
      schedule = Move_insert.schedule ~machine ~objects_of c;
      machine;
      move_routes = c.Move_insert.move_routes;
      funcs = Hashtbl.create 16;
      global_addrs = Hashtbl.create 16;
      objs = [||];
      nobjs = 0;
      misaligned = Hashtbl.create 1;
      heap_next = 0x1000000;
      input;
      outputs_rev = [];
      cycles = 0;
      moves = 0;
      fuel;
      q = free_slots ~from:0 8;
      q_head = 0;
      q_top = 0;
      pushes = 0;
      pending = I.cells 8;
      scratch = I.cells 1;
      next_access = [||];
      stamp = [||];
      decodes = 0;
    }
  in
  (* identical layout to the reference interpreter so addresses match *)
  let next = ref 0x1000 in
  List.iter
    (fun (g : Data.global) ->
      let base = !next in
      Hashtbl.replace st.global_addrs g.Data.g_name base;
      let bytes = Data.global_bytes g in
      let cells =
        match g.Data.g_init with
        | Data.Zero -> I.cells 0
        | Data.Words ws ->
            let c = I.cells (Array.length ws) in
            Array.iteri
              (fun k w ->
                I.set c k
                  (if g.Data.g_is_float then I.VFloat (Int64.float_of_bits w)
                   else I.VInt (Int64.to_int w)))
              ws;
            c
      in
      add_obj st { base; bytes; cells };
      next := base + bytes + 64)
    (Prog.globals prog);
  (* the heap starts above the globals, so bases stay sorted *)
  st.heap_next <- max st.heap_next !next;
  st

(** The object holding [addr], or [-1]: the last object whose base is
    at or below [addr], when [addr] falls inside it. *)
let find_obj st addr =
  let lo = ref (-1) and hi = ref st.nobjs in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) lsr 1 in
    if st.objs.(mid).base <= addr then lo := mid else hi := mid
  done;
  let i = !lo in
  if i >= 0 && addr < st.objs.(i).base + st.objs.(i).bytes then i else -1

let relocate st m addr what =
  let i = find_obj st addr in
  if i < 0 then sim_error "wild %s at 0x%x" what addr;
  m.last <- st.objs.(i);
  st.objs.(i)

(** The object a memory op accesses at [addr] ([what] names the access
    in the wild-access message).  Objects never move or die, so the
    op's last object still holds [addr] whenever [addr] falls inside
    it. *)
let[@inline] locate st m addr what =
  let o = m.last in
  if addr >= o.base && addr < o.base + o.bytes then o
  else relocate st m addr what

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

(** Check a block schedule statically: per-cycle resource legality.
    Moves are charged one issue slot on every link of their route, so
    link contention the scheduler missed (or a fault injected past it)
    is caught here — on the bus this is the seed's single shared
    counter.  The earliest violating cycle is reported. *)
let check_resources (machine : Vliw_machine.t)
    ~(move_routes : (int, int * int) Hashtbl.t) (s : List_sched.t) =
  let module M = Vliw_machine in
  let entries = List_sched.entries s in
  let nclusters = M.num_clusters machine and nk = M.fu_kind_count in
  let used = Array.make (nclusters * nk) 0 in
  let nlinks = M.num_link_slots machine in
  let links = Array.make nlinks 0 in
  let { M.link_off; links = route; _ } = machine.M.routes in
  let mpc = M.moves_per_cycle machine in
  let kinds = Array.of_list M.all_fu_kinds in
  let m = Array.length entries in
  let i = ref 0 in
  while !i < m do
    let cycle = entries.(!i).List_sched.cycle in
    let j = ref !i in
    while !j < m && entries.(!j).List_sched.cycle = cycle do
      let e = entries.(!j) in
      (match e.List_sched.cluster with
      | None ->
          let op_id = Op.id e.List_sched.op in
          let src, dst =
            match Hashtbl.find_opt move_routes op_id with
            | Some r -> r
            | None ->
                sim_error "cycle %d: scheduled bus move %d has no route" cycle
                  op_id
          in
          let p = M.route_pair machine ~src ~dst in
          for k = link_off.(p) to link_off.(p + 1) - 1 do
            links.(route.(k)) <- links.(route.(k)) + 1
          done
      | Some c ->
          let k = M.fu_kind_index (Op.fu_kind e.List_sched.op) in
          used.((c * nk) + k) <- used.((c * nk) + k) + 1);
      incr j
    done;
    for l = 0 to nlinks - 1 do
      let n = links.(l) in
      if n > mpc then
        match M.topology machine with
        | M.Bus -> sim_error "cycle %d: bus oversubscribed (%d moves)" cycle n
        | _ ->
            sim_error "cycle %d: link %d->%d oversubscribed (%d moves)" cycle
              (l / nclusters) (l mod nclusters) n
    done;
    for c = 0 to nclusters - 1 do
      for j = 0 to Array.length kinds - 1 do
        let k = kinds.(j) in
        let x = (c * nk) + M.fu_kind_index k in
        let cap = M.fu_count (M.cluster_of machine c) k in
        if used.(x) > cap then
          sim_error "cycle %d: cluster %d %s units oversubscribed (%d > %d)"
            cycle c (M.fu_kind_name k) used.(x) cap
      done
    done;
    Array.fill used 0 (Array.length used) 0;
    Array.fill links 0 nlinks 0;
    i := !j
  done

let func_of st name =
  match Hashtbl.find_opt st.funcs name with
  | Some fn -> fn
  | None ->
      let fs = Schedule.find_func st.schedule name in
      let cfg = fs.Schedule.cfg in
      let fn =
        {
          func = cfg.Cfg.func;
          cfg;
          scheds = fs.Schedule.blocks;
          params =
            Array.of_list (List.map Reg.to_int (Func.params cfg.Cfg.func));
          body = None;
        }
      in
      Hashtbl.replace st.funcs name fn;
      fn

(** A function's immediates: decoding gives each immediate operand the
    next slot after the registers, so [imms], newest first, holds slots
    [next - 1] down. *)
type pool = { mutable next : int; mutable imms : Op.operand list }

let operand pool = function
  | Op.Reg r -> Reg.to_int r
  | o ->
      let k = pool.next in
      pool.next <- k + 1;
      pool.imms <- o :: pool.imms;
      k

let decode st fn pool (e : List_sched.entry) =
  let op = e.List_sched.op in
  let reg = Reg.to_int and operand = operand pool in
  let instr =
    match Op.kind op with
    | Op.Ibin (o, d, a, b) -> Ibin (o, reg d, operand a, operand b)
    | Op.Fbin (o, d, a, b) -> Fbin (o, reg d, operand a, operand b)
    | Op.Un (o, d, a) -> Un (o, reg d, operand a)
    | Op.Move { dst; src } -> Move (reg dst, reg src)
    | Op.Load { dst; base; offset } ->
        Load (reg dst, operand base, operand offset, { last = no_obj })
    | Op.Store { src; base; offset } ->
        Store (operand src, operand base, operand offset, { last = no_obj })
    | Op.Addr { dst; obj } -> Addr (reg dst, Hashtbl.find st.global_addrs obj)
    | Op.Alloc { dst; size; _ } -> Alloc (reg dst, operand size)
    | Op.In { dst; index } -> In (reg dst, operand index)
    | Op.Out a -> Out (operand a)
    | Op.Call { dst; callee; args } ->
        Call
          ( Option.fold ~none:(-1) ~some:reg dst,
            func_of st callee,
            Array.of_list (List.map operand args) )
    | Op.Jmp l -> Jmp (Cfg.block_index fn.cfg l)
    | Op.Cbr { cond; if_true; if_false } ->
        Cbr
          ( operand cond,
            Cfg.block_index fn.cfg if_true,
            Cfg.block_index fn.cfg if_false )
    | Op.Ret r -> Ret (Option.fold ~none:(-1) ~some:operand r)
  in
  let route = Hashtbl.find_opt st.move_routes (Op.id op) in
  let lat =
    match route with
    | Some (src, dst) -> Vliw_machine.route_latency st.machine ~src ~dst
    | None -> Op.latency st.machine.Vliw_machine.latencies op
  in
  let greg, gsense =
    match Op.guard op with
    | None -> (-1, true)
    | Some { Op.greg; gsense } -> (reg greg, gsense)
  in
  let wreg =
    match instr with
    | Ibin (_, d, _, _)
    | Fbin (_, d, _, _)
    | Un (_, d, _)
    | Move (d, _)
    | Load (d, _, _, _)
    | Addr (d, _)
    | Alloc (d, _)
    | In (d, _)
    | Call (d, _, _) ->
        d
    | Store _ | Out _ | Jmp _ | Cbr _ | Ret _ -> -1
  in
  {
    cycle = e.List_sched.cycle;
    instr;
    lat;
    routed = route <> None;
    greg;
    gsense;
    wreg;
    direct = false;
  }

(** [f k r] for every slot [r] entry [e] may read, its guard
    included. *)
let iter_reads (e : entry) f k =
  if e.greg >= 0 then f k e.greg;
  match e.instr with
  | Ibin (_, _, a, b) | Fbin (_, _, a, b) | Load (_, a, b, _) ->
      f k a;
      f k b
  | Un (_, _, a)
  | Alloc (_, a)
  | In (_, a)
  | Out a
  | Cbr (a, _, _)
  | Move (_, a) ->
      f k a
  | Store (a, b, c, _) ->
      f k a;
      f k b;
      f k c
  | Call (_, _, args) -> Array.iter (f k) args
  | Ret a -> if a >= 0 then f k a
  | Addr _ | Jmp _ -> ()

(** Mark the writes of [es], the decoded entries of a block of a
    function with [nslots] slots, that may go straight into the
    register file: those whose register no later entry reads or writes
    before the write commits.  One backward pass over the block, with
    each slot's next access. *)
let mark_direct st ~nslots (es : entry array) =
  if Array.length st.stamp < nslots then begin
    st.next_access <- Array.make nslots 0;
    st.stamp <- Array.make nslots 0
  end;
  st.decodes <- st.decodes + 1;
  let access k r =
    st.stamp.(r) <- st.decodes;
    st.next_access.(r) <- k
  in
  for k = Array.length es - 1 downto 0 do
    let e = es.(k) in
    let r = e.wreg in
    if r >= 0 then begin
      (* the write commits before the first later entry whose cycle
         reaches its ready cycle, so the next access comes at or after
         that point exactly when its cycle does *)
      e.direct <-
        st.stamp.(r) <> st.decodes
        || es.(st.next_access.(r)).cycle >= e.cycle + e.lat;
      access k r
    end;
    iter_reads e access k
  done

(** [fn]'s blocks, decoded at its first call. *)
let body_of st (fn : func) =
  match fn.body with
  | Some b -> b
  | None ->
      let pool = { next = Func.reg_count fn.func; imms = [] } in
      let code =
        Array.mapi
          (fun bi sched ->
            {
              label = Block.label (Cfg.block fn.cfg bi);
              sched;
              length = List_sched.length sched;
              entries =
                Array.map (decode st fn pool) (List_sched.entries sched);
              checked = false;
            })
          fn.scheds
      in
      let ret_slot = pool.next in
      Array.iter
        (fun c -> mark_direct st ~nslots:(ret_slot + 1) c.entries)
        code;
      let template = I.cells (ret_slot + 1) in
      List.iteri
        (fun i o ->
          let k = ret_slot - 1 - i in
          match o with
          | Op.Imm x -> set_int template k x
          | Op.Fimm f -> I.set template k (I.VFloat f)
          | Op.Reg _ -> ())
        pool.imms;
      let b = { code; template; ret_slot } in
      fn.body <- Some b;
      b

(* ------------------------------------------------------------------ *)
(* In-flight writes                                                    *)

(** Queue a write to [r] issued at [issued]; the payload slot of
    [st.pending] to put its value in.  Issue cycles never decrease
    within a block, so it goes after every entry with an earlier
    (ready, issued) key and before every entry with an equal one. *)
let queue st fr r ~ready ~issued =
  let n = Array.length st.q in
  if st.q_top = n then begin
    st.q <- Array.append st.q (free_slots ~from:n n);
    I.extend st.pending (2 * n)
  end;
  let p = st.q.(st.q_top) in
  p.reg <- r;
  p.ready <- ready;
  p.issued <- issued;
  p.seq <- st.pushes;
  st.pushes <- st.pushes + 1;
  let j = ref (st.q_top - 1) in
  while
    !j >= st.q_head
    && (st.q.(!j).ready > ready
       || (st.q.(!j).ready = ready && st.q.(!j).issued >= issued))
  do
    st.q.(!j + 1) <- st.q.(!j);
    decr j
  done;
  st.q.(!j + 1) <- p;
  st.q_top <- st.q_top + 1;
  fr.inflight.(r) <- fr.inflight.(r) + 1;
  p.slot

let commit st fr t =
  while st.q_head < st.q_top && st.q.(st.q_head).ready <= t do
    let p = st.q.(st.q_head) in
    copy st.pending p.slot fr.regs p.reg;
    fr.inflight.(p.reg) <- fr.inflight.(p.reg) - 1;
    st.q_head <- st.q_head + 1
  done

let[@inline] commit_due st fr t = if st.q_head < st.q_top then commit st fr t

(** Every queued write is due after [t] (its cycle has been committed),
    so a read of [r] at [t] is stale when a write to [r] was issued
    before [t]; the newest such write is reported. *)
let check_latency st fr code t r =
  let stale = ref (-1) in
  for k = st.q_head to st.q_top - 1 do
    let p = st.q.(k) in
    if p.reg = r && p.issued < t && (!stale < 0 || p.seq > st.q.(!stale).seq)
    then stale := k
  done;
  if !stale >= 0 then
    let p = st.q.(!stale) in
    sim_error
      "latency violation: %s/%a reads %a at cycle %d but a write issued at \
       %d completes at %d"
      (Func.name fr.fn.func) Label.pp code.label Reg.pp r t p.issued p.ready

(* The running frame's queued writes are the running block's, so while
   the queue holds none, no read can be stale and no write waits behind
   another: the common case, tested first. *)

(** A read of slot [r] at [t]: the caller then takes its value from
    [fr.regs]. *)
let[@inline] read st fr code t r =
  if st.q_head < st.q_top && fr.inflight.(r) > 0 then
    check_latency st fr code t r

(* A write at its nominal latency goes straight into the register file
   when it is direct and no write to its register is queued, since
   nothing can tell the difference; it is queued otherwise, in the slot
   [queued] gives. *)
let[@inline] direct st fr (e : entry) r =
  e.direct && (st.q_head = st.q_top || fr.inflight.(r) = 0)

let queued st fr (e : entry) t r = queue st fr r ~ready:(t + e.lat) ~issued:t

let[@inline] write_int st fr e t r i =
  if direct st fr e r then set_int fr.regs r i
  else set_int st.pending (queued st fr e t r) i

let[@inline] write_copy st fr e t r src k =
  if direct st fr e r then copy src k fr.regs r
  else copy src k st.pending (queued st fr e t r)

(** A routed move of slot [s] to [d], through the transfer fault
    points. *)
let transfer st fr (e : entry) t d s =
  (* fault injection: timing fault — an intercluster transfer takes
     longer than the machine model promises, so a consumer issued
     against the nominal latency reads a stale value *)
  let lat =
    if Fault.fire "sim.move-latency" then
      e.lat + 1 + Fault.rand "sim.move-latency" 3
    else e.lat
  in
  (* fault injection: data fault — the bus corrupts the transferred
     value *)
  let corrupt = Fault.fire "sim.move-value" in
  if corrupt then
    I.set st.scratch 0
      (match I.get fr.regs s with
      | I.VInt i -> I.VInt (i + 1 + Fault.rand "sim.move-value" 7)
      | I.VFloat f -> I.VFloat (f +. 1.0));
  let src = if corrupt then st.scratch else fr.regs in
  let k = if corrupt then 0 else s in
  if lat = e.lat then write_copy st fr e t d src k
  else copy src k st.pending (queue st fr d ~ready:(t + lat) ~issued:t)

(* The offset is read first, then the base, so a float in both is
   reported by its offset. *)
let address st fr code t b o =
  read st fr code t o;
  let off = get_int fr.regs o in
  read st fr code t b;
  get_int fr.regs b + off

let load st fr e t d o addr =
  let off = addr - o.base in
  if off mod word <> 0 then
    match Hashtbl.find_opt st.misaligned addr with
    | Some v ->
        I.set st.scratch 0 v;
        write_copy st fr e t d st.scratch 0
    | None -> write_int st fr e t d 0
  else
    let i = off / word in
    if i < Array.length o.cells.I.ints then write_copy st fr e t d o.cells i
    else write_int st fr e t d 0

let store st o addr src k =
  let off = addr - o.base in
  if off mod word <> 0 then Hashtbl.replace st.misaligned addr (I.get src k)
  else begin
    let i = off / word in
    let n = Array.length o.cells.I.ints in
    if i >= n then
      I.extend o.cells (min (o.bytes / word) (max (i + 1) (2 * n)));
    copy src k o.cells i
  end

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

let[@inline] guard_holds st fr code t (e : entry) =
  read st fr code t e.greg;
  Bool.equal (get_int fr.regs e.greg <> 0) e.gsense

(** Execute one entry of block [code].  A terminator sets [fr.next]:
    the successor block index, or [-1] after a return, which copies its
    value to the return slot. *)
let rec exec_entry st fr code e =
  let t = e.cycle in
  commit_due st fr t;
  if e.greg >= 0 && not (guard_holds st fr code t e) then
    () (* nullified in its slot *)
  else
    match e.instr with
    | Ibin (o, d, a, b) ->
        read st fr code t b;
        read st fr code t a;
        if direct st fr e d then I.eval_ibin o fr.regs a b fr.regs d
        else I.eval_ibin o fr.regs a b st.pending (queued st fr e t d)
    | Fbin (o, d, a, b) ->
        read st fr code t b;
        read st fr code t a;
        if direct st fr e d then I.eval_fbin o fr.regs a b fr.regs d
        else I.eval_fbin o fr.regs a b st.pending (queued st fr e t d)
    | Un (o, d, a) ->
        read st fr code t a;
        if direct st fr e d then I.eval_un o fr.regs a fr.regs d
        else I.eval_un o fr.regs a st.pending (queued st fr e t d)
    | Move (d, s) ->
        st.moves <- st.moves + 1;
        read st fr code t s;
        if e.routed then transfer st fr e t d s
        else write_copy st fr e t d fr.regs s
    | Load (d, b, o, m) ->
        let addr = address st fr code t b o in
        load st fr e t d (locate st m addr "load") addr
    | Store (s, b, o, m) ->
        let addr = address st fr code t b o in
        let ob = locate st m addr "store" in
        read st fr code t s;
        (* stores commit at t + 1; loads are ordered >= t+1 by deps, so
           committing into memory immediately is equivalent *)
        store st ob addr fr.regs s
    | Addr (d, a) -> write_int st fr e t d a
    | Alloc (d, size) ->
        read st fr code t size;
        let bytes = get_int fr.regs size in
        if bytes < 0 then sim_error "negative allocation";
        let rounded = (bytes + word - 1) / word * word in
        let base = st.heap_next in
        st.heap_next <- base + rounded + 64;
        add_obj st { base; bytes = rounded; cells = I.cells 0 };
        write_int st fr e t d base
    | In (d, index) ->
        read st fr code t index;
        let i = get_int fr.regs index in
        if i < 0 || i >= Array.length st.input then
          sim_error "input index %d out of bounds" i;
        write_int st fr e t d st.input.(i)
    | Out a ->
        read st fr code t a;
        st.outputs_rev <- I.get fr.regs a :: st.outputs_rev
    | Call (d, g, args) ->
        for k = 0 to Array.length args - 1 do
          read st fr code t args.(k)
        done;
        let head = st.q_head in
        let callee = exec_func st g fr.regs args in
        st.q_head <- head;
        if d >= 0 then
          if callee.ret >= 0 then write_copy st fr e t d callee.regs callee.ret
          else sim_error "call to %s returned no value" (Func.name g.func)
    | Jmp b -> fr.next <- b
    | Cbr (c, bt, bf) ->
        read st fr code t c;
        fr.next <- (if get_int fr.regs c <> 0 then bt else bf)
    | Ret r ->
        if r >= 0 then begin
          read st fr code t r;
          copy fr.regs r fr.regs fr.body.ret_slot;
          fr.ret <- fr.body.ret_slot
        end
        else fr.ret <- -1;
        fr.next <- -1

(** Run [fn] called with slots [args] of [caller]; its finished
    frame. *)
and exec_func st fn caller args =
  let body = body_of st fn in
  let fr =
    {
      fn;
      body;
      regs = I.copy_cells body.template;
      inflight = Array.make (body.ret_slot + 1) 0;
      next = -1;
      ret = -1;
    }
  in
  if Array.length args <> Array.length fn.params then
    sim_error "arity mismatch calling %s" (Func.name fn.func);
  for k = 0 to Array.length args - 1 do
    copy caller args.(k) fr.regs fn.params.(k)
  done;
  run_block st fr 0;
  fr

and run_block st fr bi =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then sim_error "out of fuel";
  let code = fr.body.code.(bi) in
  (* the schedule is the program's shared one, so a capacity fault
     injected where it was built ([sched.overbook]) is caught here *)
  if not code.checked then begin
    check_resources st.machine ~move_routes:st.move_routes code.sched;
    code.checked <- true
  end;
  st.cycles <- st.cycles + code.length;
  let base = st.q_top in
  st.q_head <- base;
  fr.next <- -2;
  (try
     for k = 0 to Array.length code.entries - 1 do
       exec_entry st fr code code.entries.(k)
     done
   with I.Runtime_error m -> sim_error "runtime error: %s" m);
  (* cut in-flight latencies at the block boundary *)
  commit_due st fr max_int;
  st.q_head <- base;
  st.q_top <- base;
  if fr.next >= 0 then run_block st fr fr.next
  else if fr.next <> -1 then sim_error "block fell through without a terminator"

(** Simulate a clustered program on [input]. *)
let run ?(fuel = 5_000_000) (c : Move_insert.clustered)
    ~(machine : Vliw_machine.t) ?(objects_of = Schedule.no_objects) ~input ()
    : result =
  Telemetry.with_span "simulate" @@ fun () ->
  let st = init machine c ~objects_of ~input ~fuel in
  let main = func_of st (Func.name (Prog.main c.Move_insert.cprog)) in
  let (_ : frame) = exec_func st main (I.cells 0) [||] in
  Telemetry.incr "sim.blocks_executed" ~by:(fuel - st.fuel);
  Telemetry.incr "sim.cycles" ~by:st.cycles;
  Telemetry.incr "sim.dynamic_moves" ~by:st.moves;
  {
    outputs = List.rev st.outputs_rev;
    cycles = st.cycles;
    dynamic_moves = st.moves;
  }
