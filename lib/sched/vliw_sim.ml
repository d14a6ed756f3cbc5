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

    The engine is flat.  Each block's schedule is resource-checked and
    decoded once per run, at its first visit, into an array of entries
    with register indices, boxed immediates, effective latencies and
    resolved successors and callees.  In-flight writes sit in an array
    queue kept in commit order.  Memory is one word array per data
    object, found by binary search over the objects' base addresses.
    Nothing here is shared with the interpreter except the value type
    and the op evaluators, so the two stay independent oracles.

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

type operand = Var of int | Const of I.value

type instr =
  | Ibin of Op.ibinop * int * operand * operand
  | Fbin of Op.fbinop * int * operand * operand
  | Un of Op.unop * int * operand
  | Move of int * int  (** destination, source *)
  | Load of int * operand * operand
  | Store of operand * operand * operand
  | Addr of int * I.value
  | Alloc of int * operand
  | In of int * operand
  | Out of operand
  | Call of int * func * operand list  (** destination, [-1] for none *)
  | Jmp of int  (** successor block index *)
  | Cbr of operand * int * int
  | Ret of operand option

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
  entries : entry array;
}

(** A function, with its CFG and block schedules from the program's
    schedule. *)
and func = {
  func : Func.t;
  cfg : Cfg.t;
  scheds : List_sched.t array;  (** by CFG block index *)
  code : code option array;  (** filled at each block's first visit *)
}

(* ------------------------------------------------------------------ *)
(* Machine state                                                       *)

(** A data object: a global or one heap block.  [cells] holds its words
    and grows to cover the highest word written; words past its end
    read 0. *)
type obj = { base : int; bytes : int; mutable cells : I.value array }

(** An in-flight write; [seq] is its push order, for the latency
    message. *)
type pending = {
  mutable reg : int;
  mutable value : I.value;
  mutable ready : int;
  mutable issued : int;
  mutable seq : int;
}

let free_slots n =
  Array.init n (fun _ ->
      { reg = 0; value = I.VInt 0; ready = 0; issued = 0; seq = 0 })

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
     [q_top] on are free records, reused by later writes. *)
  mutable q : pending array;
  mutable q_head : int;
  mutable q_top : int;
  mutable pushes : int;
  (* decoder scratch: the next entry to access each register, valid
     where [stamp] is [decodes] *)
  mutable next_access : int array;
  mutable stamp : int array;
  mutable decodes : int;
}

(** One activation: its registers, per register how many writes to it
    are in flight, and where its running block goes next ([-2] until
    the terminator runs, [-1] for a return with value [ret]). *)
type frame = {
  fn : func;
  regs : I.value array;
  inflight : int array;
  mutable next : int;
  mutable ret : I.value option;
}

let word = Data.word_bytes

let add_obj st o =
  if st.nobjs = Array.length st.objs then
    st.objs <- Array.append st.objs (Array.make (max 8 st.nobjs) o);
  st.objs.(st.nobjs) <- o;
  st.nobjs <- st.nobjs + 1

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
      q = free_slots 64;
      q_head = 0;
      q_top = 0;
      pushes = 0;
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
        | Data.Zero -> [||]
        | Data.Words ws ->
            Array.map
              (fun w ->
                if g.Data.g_is_float then I.VFloat (Int64.float_of_bits w)
                else I.VInt (Int64.to_int w))
              ws
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

let load st o addr =
  let off = addr - o.base in
  if off mod word <> 0 then
    Option.value ~default:(I.VInt 0) (Hashtbl.find_opt st.misaligned addr)
  else
    let i = off / word in
    if i < Array.length o.cells then o.cells.(i) else I.VInt 0

let store st o addr v =
  let off = addr - o.base in
  if off mod word <> 0 then Hashtbl.replace st.misaligned addr v
  else begin
    let i = off / word in
    let n = Array.length o.cells in
    if i >= n then begin
      let len = min (o.bytes / word) (max (i + 1) (2 * n)) in
      let cells = Array.make len (I.VInt 0) in
      Array.blit o.cells 0 cells 0 n;
      o.cells <- cells
    end;
    o.cells.(i) <- v
  end

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
    Array.iteri
      (fun l n ->
        if n > mpc then
          match M.topology machine with
          | M.Bus -> sim_error "cycle %d: bus oversubscribed (%d moves)" cycle n
          | _ ->
              sim_error "cycle %d: link %d->%d oversubscribed (%d moves)" cycle
                (l / nclusters) (l mod nclusters) n)
      links;
    for c = 0 to nclusters - 1 do
      List.iter
        (fun k ->
          let x = (c * nk) + M.fu_kind_index k in
          let cap = M.fu_count (M.cluster_of machine c) k in
          if used.(x) > cap then
            sim_error "cycle %d: cluster %d %s units oversubscribed (%d > %d)"
              cycle c (M.fu_kind_name k) used.(x) cap)
        M.all_fu_kinds
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
          code = Array.make (Cfg.num_blocks cfg) None;
        }
      in
      Hashtbl.replace st.funcs name fn;
      fn

let operand = function
  | Op.Reg r -> Var (Reg.to_int r)
  | Op.Imm i -> Const (I.VInt i)
  | Op.Fimm f -> Const (I.VFloat f)

let decode st fn (e : List_sched.entry) =
  let op = e.List_sched.op in
  let reg = Reg.to_int in
  let instr =
    match Op.kind op with
    | Op.Ibin (o, d, a, b) -> Ibin (o, reg d, operand a, operand b)
    | Op.Fbin (o, d, a, b) -> Fbin (o, reg d, operand a, operand b)
    | Op.Un (o, d, a) -> Un (o, reg d, operand a)
    | Op.Move { dst; src } -> Move (reg dst, reg src)
    | Op.Load { dst; base; offset } ->
        Load (reg dst, operand base, operand offset)
    | Op.Store { src; base; offset } ->
        Store (operand src, operand base, operand offset)
    | Op.Addr { dst; obj } ->
        Addr (reg dst, I.VInt (Hashtbl.find st.global_addrs obj))
    | Op.Alloc { dst; size; _ } -> Alloc (reg dst, operand size)
    | Op.In { dst; index } -> In (reg dst, operand index)
    | Op.Out a -> Out (operand a)
    | Op.Call { dst; callee; args } ->
        Call
          ( Option.fold ~none:(-1) ~some:reg dst,
            func_of st callee,
            List.map operand args )
    | Op.Jmp l -> Jmp (Cfg.block_index fn.cfg l)
    | Op.Cbr { cond; if_true; if_false } ->
        Cbr
          ( operand cond,
            Cfg.block_index fn.cfg if_true,
            Cfg.block_index fn.cfg if_false )
    | Op.Ret r -> Ret (Option.map operand r)
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
    | Load (d, _, _)
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

(** [f r] for every register entry [e] may read, its guard included. *)
let iter_reads (e : entry) f =
  if e.greg >= 0 then f e.greg;
  let opd = function Var r -> f r | Const _ -> () in
  match e.instr with
  | Ibin (_, _, a, b) | Fbin (_, _, a, b) | Load (_, a, b) ->
      opd a;
      opd b
  | Un (_, _, a) | Alloc (_, a) | In (_, a) | Out a | Cbr (a, _, _) -> opd a
  | Move (_, r) -> f r
  | Store (a, b, c) ->
      opd a;
      opd b;
      opd c
  | Call (_, _, args) -> List.iter opd args
  | Ret a -> Option.iter opd a
  | Addr _ | Jmp _ -> ()

(** Mark the writes of [es], the decoded entries of a block of a
    function with [nregs] registers, that may go straight into the
    register file: those whose register no later entry reads or writes
    before the write commits.  One backward pass over the block, with
    each register's next access. *)
let mark_direct st ~nregs (es : entry array) =
  if Array.length st.stamp < nregs then begin
    st.next_access <- Array.make nregs 0;
    st.stamp <- Array.make nregs 0
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
    iter_reads e (access k)
  done

(** Block [bi] of [fn], checked and decoded at its first visit.  The
    schedule is the program's shared one, so a capacity fault injected
    where it was built ([sched.overbook]) is caught here. *)
let code_of st fn bi =
  match fn.code.(bi) with
  | Some c -> c
  | None ->
      let sched = fn.scheds.(bi) in
      check_resources st.machine ~move_routes:st.move_routes sched;
      let entries = Array.map (decode st fn) (List_sched.entries sched) in
      mark_direct st ~nregs:(Func.reg_count fn.func) entries;
      let c = { label = Block.label (Cfg.block fn.cfg bi); sched; entries } in
      fn.code.(bi) <- Some c;
      c

(* ------------------------------------------------------------------ *)
(* In-flight writes                                                    *)

(** Queue a write issued at [issued].  Issue cycles never decrease
    within a block, so it goes after every entry with an earlier
    (ready, issued) key and before every entry with an equal one. *)
let push st fr r v ~ready ~issued =
  if st.q_top = Array.length st.q then
    st.q <- Array.append st.q (free_slots (Array.length st.q));
  let p = st.q.(st.q_top) in
  p.reg <- r;
  p.value <- v;
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
  fr.inflight.(r) <- fr.inflight.(r) + 1

let commit_due st fr t =
  while st.q_head < st.q_top && st.q.(st.q_head).ready <= t do
    let p = st.q.(st.q_head) in
    fr.regs.(p.reg) <- p.value;
    fr.inflight.(p.reg) <- fr.inflight.(p.reg) - 1;
    st.q_head <- st.q_head + 1
  done

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

let read st fr code t r =
  if fr.inflight.(r) > 0 then check_latency st fr code t r;
  fr.regs.(r)

let value st fr code t = function
  | Var r -> read st fr code t r
  | Const v -> v

(* A write at its nominal latency: straight into the register file
   when it is direct and no write to its register is queued, since
   nothing can tell the difference; queued otherwise. *)
let write_nominal st fr (e : entry) t r v =
  if e.direct && fr.inflight.(r) = 0 then fr.regs.(r) <- v
  else push st fr r v ~ready:(t + e.lat) ~issued:t

let write st fr (e : entry) t r v =
  if e.routed then begin
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
    let v =
      if Fault.fire "sim.move-value" then
        match v with
        | I.VInt i -> I.VInt (i + 1 + Fault.rand "sim.move-value" 7)
        | I.VFloat f -> I.VFloat (f +. 1.0)
      else v
    in
    if lat = e.lat then write_nominal st fr e t r v
    else push st fr r v ~ready:(t + lat) ~issued:t
  end
  else write_nominal st fr e t r v

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(** Execute one entry of block [code].  A terminator sets [fr.next]:
    the successor block index, or [-1] after a return, whose value it
    puts in [fr.ret]. *)
let rec exec_entry st fr code e =
  let t = e.cycle in
  commit_due st fr t;
  if
    e.greg >= 0
    && not (Bool.equal (I.to_int (read st fr code t e.greg) <> 0) e.gsense)
  then () (* nullified in its slot *)
  else
    match e.instr with
    | Ibin (o, d, a, b) ->
        write st fr e t d
          (I.eval_ibin o (value st fr code t a) (value st fr code t b))
    | Fbin (o, d, a, b) ->
        write st fr e t d
          (I.eval_fbin o (value st fr code t a) (value st fr code t b))
    | Un (o, d, a) -> write st fr e t d (I.eval_un o (value st fr code t a))
    | Move (d, s) ->
        st.moves <- st.moves + 1;
        write st fr e t d (read st fr code t s)
    | Load (d, b, o) ->
        let addr =
          I.to_int (value st fr code t b) + I.to_int (value st fr code t o)
        in
        let i = find_obj st addr in
        if i < 0 then sim_error "wild load at 0x%x" addr;
        write st fr e t d (load st st.objs.(i) addr)
    | Store (s, b, o) ->
        let addr =
          I.to_int (value st fr code t b) + I.to_int (value st fr code t o)
        in
        let i = find_obj st addr in
        if i < 0 then sim_error "wild store at 0x%x" addr;
        let ob = st.objs.(i) in
        (* stores commit at t + 1; loads are ordered >= t+1 by deps, so
           committing into memory immediately is equivalent *)
        store st ob addr (value st fr code t s)
    | Addr (d, a) -> write st fr e t d a
    | Alloc (d, size) ->
        let bytes = I.to_int (value st fr code t size) in
        if bytes < 0 then sim_error "negative allocation";
        let rounded = (bytes + word - 1) / word * word in
        let base = st.heap_next in
        st.heap_next <- base + rounded + 64;
        add_obj st { base; bytes = rounded; cells = [||] };
        write st fr e t d (I.VInt base)
    | In (d, index) ->
        let i = I.to_int (value st fr code t index) in
        if i < 0 || i >= Array.length st.input then
          sim_error "input index %d out of bounds" i;
        write st fr e t d (I.VInt st.input.(i))
    | Out a -> st.outputs_rev <- value st fr code t a :: st.outputs_rev
    | Call (d, g, args) -> (
        let vals = List.map (value st fr code t) args in
        let head = st.q_head in
        let r = exec_func st g vals in
        st.q_head <- head;
        match r with
        | Some r when d >= 0 -> write st fr e t d r
        | _ when d < 0 -> ()
        | _ -> sim_error "call to %s returned no value" (Func.name g.func))
    | Jmp b -> fr.next <- b
    | Cbr (c, bt, bf) ->
        fr.next <- (if I.to_int (value st fr code t c) <> 0 then bt else bf)
    | Ret r ->
        fr.ret <- Option.map (value st fr code t) r;
        fr.next <- -1

and exec_func st fn (args : I.value list) : I.value option =
  let n = Func.reg_count fn.func in
  let fr =
    {
      fn;
      regs = Array.make n (I.VInt 0);
      inflight = Array.make n 0;
      next = -1;
      ret = None;
    }
  in
  (try
     List.iter2
       (fun p a -> fr.regs.(Reg.to_int p) <- a)
       (Func.params fn.func) args
   with Invalid_argument _ ->
     sim_error "arity mismatch calling %s" (Func.name fn.func));
  run_block st fr 0

and run_block st fr bi =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then sim_error "out of fuel";
  let code = code_of st fr.fn bi in
  st.cycles <- st.cycles + List_sched.length code.sched;
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
  else if fr.next = -1 then fr.ret
  else sim_error "block fell through without a terminator"

(** Simulate a clustered program on [input]. *)
let run ?(fuel = 5_000_000) (c : Move_insert.clustered)
    ~(machine : Vliw_machine.t) ?(objects_of = Schedule.no_objects) ~input ()
    : result =
  Telemetry.with_span "simulate" @@ fun () ->
  let st = init machine c ~objects_of ~input ~fuel in
  let main = func_of st (Func.name (Prog.main c.Move_insert.cprog)) in
  let (_ : I.value option) = exec_func st main [] in
  Telemetry.incr "sim.blocks_executed" ~by:(fuel - st.fuel);
  Telemetry.incr "sim.cycles" ~by:st.cycles;
  Telemetry.incr "sim.dynamic_moves" ~by:st.moves;
  {
    outputs = List.rev st.outputs_rev;
    cycles = st.cycles;
    dynamic_moves = st.moves;
  }
