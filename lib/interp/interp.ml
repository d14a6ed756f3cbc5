(** Reference interpreter for the VLIW IR.

    Serves three roles:
    - functional semantics: computing the observable output of a program
      on a workload input (the oracle for semantic-preservation tests);
    - the profiler of the paper's framework: block execution counts,
      per-operation object access counts, heap allocation sizes;
    - a dynamic checker: every executed memory access must fall inside a
      live data object (there is no undefined-behaviour escape hatch).

    Memory is a flat byte-addressed space holding 8-byte words.  Globals
    are laid out at increasing addresses from [global_base] with guard
    gaps; the heap bump-allocates from [heap_base].

    The engine is flat and an executed op allocates nothing.  Values
    are held unboxed in [cells]: an int payload, a float payload and a
    tag byte per slot.  Each function is decoded at its first call into
    arrays of ops over slot indices, with resolved branch targets and
    callees: a frame's slots are the function's registers, then one slot
    per immediate operand, preloaded from the function's template.
    Memory is one [cells] per data object, found by binary search over
    the objects' base addresses; each memory op caches the object it
    touched last and that object's touch counter, so the search runs
    only when the op moves to another object.  The profile is counted
    in dense arrays and turned into a [Profile.t] once, when the run
    ends. *)

open Vliw_ir
module Cfg = Vliw_analysis.Cfg

exception Runtime_error of string

let runtime_error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

type value = VInt of int | VFloat of float

let pp_value ppf = function
  | VInt i -> Fmt.int ppf i
  | VFloat f -> Fmt.pf ppf "%.6g" f

let equal_value a b =
  match (a, b) with
  | VInt x, VInt y -> Int.equal x y
  | VFloat x, VFloat y ->
      (* exact comparison: the pipelines must preserve bit-identical
         results, both sides run the same float ops in the same order *)
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | VInt _, VFloat _ | VFloat _, VInt _ -> false

let global_base = 0x1000
let heap_base = 0x1000000
(* [Data.word_bytes] as a literal, so that word offsets compile to
   shifts instead of divisions *)
let word = 8
let () = assert (word = Data.word_bytes)

(* ------------------------------------------------------------------ *)
(* Tagged cells                                                        *)

type cells = {
  mutable ints : int array;
  mutable floats : float array;
  mutable tags : Bytes.t;
}

let int_tag = '\000'
let float_tag = '\001'

let cells n =
  {
    ints = Array.make n 0;
    floats = Array.make n 0.;
    tags = Bytes.make n int_tag;
  }

let copy_cells c =
  {
    ints = Array.copy c.ints;
    floats = Array.copy c.floats;
    tags = Bytes.copy c.tags;
  }

let float_found f = runtime_error "expected an int value, found float %g" f

(* Slots of zero-initialized storage hold int 0; float code may
   legitimately read them, so ints promote to floats silently.  The
   three arrays of a [cells] have one length, so each accessor checks
   the bounds of one of them. *)

let[@inline] get_int c k =
  let i = c.ints.(k) in
  if Bytes.unsafe_get c.tags k = int_tag then i
  else float_found (Array.unsafe_get c.floats k)

let[@inline] get_float c k =
  let f = c.floats.(k) in
  if Bytes.unsafe_get c.tags k = int_tag then
    float_of_int (Array.unsafe_get c.ints k)
  else f

let[@inline] set_int c k i =
  c.ints.(k) <- i;
  Bytes.unsafe_set c.tags k int_tag

let[@inline] set_float c k f =
  c.floats.(k) <- f;
  Bytes.unsafe_set c.tags k float_tag

let[@inline] copy src j dst k =
  let i = src.ints.(j) in
  dst.ints.(k) <- i;
  Array.unsafe_set dst.floats k (Array.unsafe_get src.floats j);
  Bytes.unsafe_set dst.tags k (Bytes.unsafe_get src.tags j)

let extend c n =
  let m = Array.length c.ints in
  if n > m then begin
    let g = cells n in
    Array.blit c.ints 0 g.ints 0 m;
    Array.blit c.floats 0 g.floats 0 m;
    Bytes.blit c.tags 0 g.tags 0 m;
    c.ints <- g.ints;
    c.floats <- g.floats;
    c.tags <- g.tags
  end

let get c k =
  let i = c.ints.(k) in
  if Bytes.unsafe_get c.tags k = int_tag then VInt i
  else VFloat (Array.unsafe_get c.floats k)

let set c k = function VInt i -> set_int c k i | VFloat f -> set_float c k f

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

let eval_ibin op src a b dst d =
  let x = get_int src a in
  let y = get_int src b in
  set_int dst d
    (match (op : Op.ibinop) with
    | Op.Add -> x + y
    | Op.Sub -> x - y
    | Op.Mul -> x * y
    | Op.Div -> if y = 0 then runtime_error "division by zero" else x / y
    | Op.Rem -> if y = 0 then runtime_error "remainder by zero" else x mod y
    | Op.And -> x land y
    | Op.Or -> x lor y
    | Op.Xor -> x lxor y
    | Op.Shl -> x lsl y
    | Op.Shr -> x asr y
    | Op.Icmp Op.Ceq -> Bool.to_int (x = y)
    | Op.Icmp Op.Cne -> Bool.to_int (x <> y)
    | Op.Icmp Op.Clt -> Bool.to_int (x < y)
    | Op.Icmp Op.Cle -> Bool.to_int (x <= y)
    | Op.Icmp Op.Cgt -> Bool.to_int (x > y)
    | Op.Icmp Op.Cge -> Bool.to_int (x >= y))

(* Each case stores its own result: a float passed to or returned from
   a function that is not inlined would be boxed. *)
let eval_fbin op src a b dst d =
  let x = get_float src a in
  let y = get_float src b in
  match (op : Op.fbinop) with
  | Op.Fadd -> set_float dst d (x +. y)
  | Op.Fsub -> set_float dst d (x -. y)
  | Op.Fmul -> set_float dst d (x *. y)
  | Op.Fdiv -> set_float dst d (x /. y)
  | Op.Fcmp Op.Ceq -> set_int dst d (Bool.to_int (x = y))
  | Op.Fcmp Op.Cne -> set_int dst d (Bool.to_int (x <> y))
  | Op.Fcmp Op.Clt -> set_int dst d (Bool.to_int (x < y))
  | Op.Fcmp Op.Cle -> set_int dst d (Bool.to_int (x <= y))
  | Op.Fcmp Op.Cgt -> set_int dst d (Bool.to_int (x > y))
  | Op.Fcmp Op.Cge -> set_int dst d (Bool.to_int (x >= y))

let eval_un op src a dst d =
  match (op : Op.unop) with
  | Op.Neg -> set_int dst d (-get_int src a)
  | Op.Not -> set_int dst d (if get_int src a = 0 then 1 else 0)
  | Op.Copy -> copy src a dst d
  | Op.Itof -> set_float dst d (get_float src a)
  | Op.Ftoi -> set_int dst d (int_of_float (get_float src a))

(* ------------------------------------------------------------------ *)
(* Machine state                                                       *)

(** A data object: a global or one heap block.  [cells] holds its words
    and grows to cover the highest word written; words past its end
    read 0. *)
type obj = {
  base : int;
  bytes : int;
  obj : Data.obj;  (** one value per global or malloc site *)
  cells : cells;
}

(** A malloc site: its object and the bytes allocated there so far. *)
type site = { sobj : Data.obj; mutable sbytes : int }

(** An object a memory op touched and how often.  Each op keeps its
    touches newest first; objects are compared physically, since each
    has one [Data.obj] value. *)
type touch = { tobj : Data.obj; mutable n : int }

(** A memory op's cache: the object it touched last and that object's
    touch counter. *)
type mem = { mutable last : obj; mutable hits : touch }

(* An empty object, which no address falls inside, so a fresh cache
   misses before its touch counter is used. *)
let no_obj = { base = 0; bytes = 0; obj = Data.Heap (-1); cells = cells 0 }
let no_touch = { tobj = no_obj.obj; n = 0 }

(* ------------------------------------------------------------------ *)
(* Decoded code                                                        *)

(** Operands are slot indices: a register, or an immediate's slot. *)
type instr =
  | Ibin of Op.ibinop * int * int * int
  | Fbin of Op.fbinop * int * int * int
  | Un of Op.unop * int * int
  | Load of int * int * int * mem  (** destination, base, offset *)
  | Store of int * int * int * mem  (** source, base, offset *)
  | Addr of int * int
  | Alloc of int * int * int
  | Call of int * func * int array  (** destination, [-1] for none *)
  | In of int * int
  | Out of int
  | Move of int * int  (** destination, source *)

and op = { id : int; instr : instr; greg : int; gsense : bool }
(** [greg] is [-1] for an unguarded op *)

and term =
  | Jmp of int
  | Cbr of int * int * int
  | Ret of int  (** the returned slot, [-1] for none *)

and block = {
  body : op array;
  term : term;
  term_id : int;
  calls : bool;  (** the body calls a function *)
}

and code = {
  blocks : block array;
  template : cells;
      (** a fresh frame: registers int 0, then the immediates *)
}

and func = {
  func : Func.t;
  cfg : Cfg.t;
  params : int array;
  counts : int array;  (** executions per block *)
  mutable code : code option;  (** decoded at the first call *)
}

type state = {
  prog : Prog.t;
  funcs : (string, func) Hashtbl.t;
  global_addrs : (string, int) Hashtbl.t;
  mutable objs : obj array;  (** sorted by base; bases never overlap *)
  mutable nobjs : int;
  sites : (int, site) Hashtbl.t;
  mutable heap_next : int;
  input : int array;
  mutable outputs_rev : value list;
  mutable steps : int;
  fuel : int;
  op_counts : int array;  (** by op id *)
  touches : touch list array;  (** by op id *)
}

let add_obj st o =
  if st.nobjs = Array.length st.objs then
    st.objs <- Array.append st.objs (Array.make (max 8 st.nobjs) o);
  st.objs.(st.nobjs) <- o;
  st.nobjs <- st.nobjs + 1

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

(** Op [id]'s touch of [obj], counted once more. *)
let touch st id obj =
  let rec find = function
    | t :: rest -> if t.tobj == obj then t else find rest
    | [] ->
        let t = { tobj = obj; n = 0 } in
        st.touches.(id) <- t :: st.touches.(id);
        t
  in
  let t = find st.touches.(id) in
  t.n <- t.n + 1;
  t

let relocate st id m addr =
  let i = find_obj st addr in
  if i < 0 then runtime_error "wild memory access at address 0x%x" addr;
  let o = st.objs.(i) in
  m.last <- o;
  m.hits <- touch st id o.obj;
  o

(** The object memory op [id] accesses at [addr], its touch counted.
    Objects never move or die, so the op's last object still holds
    [addr] whenever [addr] falls inside it. *)
let[@inline] access st id m addr =
  if addr mod word <> 0 then
    runtime_error "misaligned access at address 0x%x" addr;
  let o = m.last in
  if addr >= o.base && addr < o.base + o.bytes then begin
    m.hits.n <- m.hits.n + 1;
    o
  end
  else relocate st id m addr

(** [o] grown to hold word [i]. *)
let grow o i =
  let n = Array.length o.cells.ints in
  if i >= n then extend o.cells (min (o.bytes / word) (max (i + 1) (2 * n)))

let site_of st s =
  match Hashtbl.find_opt st.sites s with
  | Some x -> x
  | None ->
      let x = { sobj = Data.Heap s; sbytes = 0 } in
      Hashtbl.replace st.sites s x;
      x

let init_state prog ~input ~fuel =
  let nops = Prog.op_count prog in
  let st =
    {
      prog;
      funcs = Hashtbl.create 16;
      global_addrs = Hashtbl.create 16;
      objs = [||];
      nobjs = 0;
      sites = Hashtbl.create 16;
      heap_next = heap_base;
      input;
      outputs_rev = [];
      steps = 0;
      fuel;
      op_counts = Array.make nops 0;
      touches = Array.make nops [];
    }
  in
  let next = ref global_base in
  List.iter
    (fun (g : Data.global) ->
      let base = !next in
      Hashtbl.replace st.global_addrs g.Data.g_name base;
      let bytes = Data.global_bytes g in
      let c =
        match g.Data.g_init with
        | Data.Zero -> cells 0
        | Data.Words ws ->
            let c = cells (Array.length ws) in
            Array.iteri
              (fun k w ->
                if g.Data.g_is_float then set_float c k (Int64.float_of_bits w)
                else set_int c k (Int64.to_int w))
              ws;
            c
      in
      add_obj st { base; bytes; obj = Data.Global g.Data.g_name; cells = c };
      (* 64-byte guard gap keeps out-of-bounds walks detectable *)
      next := base + bytes + 64)
    (Prog.globals prog);
  (* the heap starts above the globals, so bases stay sorted *)
  st.heap_next <- max st.heap_next !next;
  st

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

let func_of st name =
  match Hashtbl.find_opt st.funcs name with
  | Some fn -> fn
  | None ->
      let func = Prog.find_func st.prog name in
      let cfg = Cfg.of_func func in
      let fn =
        {
          func;
          cfg;
          params = Array.of_list (List.map Reg.to_int (Func.params func));
          counts = Array.make (Cfg.num_blocks cfg) 0;
          code = None;
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

let decode_op st pool (op : Op.t) =
  let reg = Reg.to_int and operand = operand pool in
  let mem () = { last = no_obj; hits = no_touch } in
  let instr =
    match Op.kind op with
    | Op.Ibin (o, d, a, b) -> Ibin (o, reg d, operand a, operand b)
    | Op.Fbin (o, d, a, b) -> Fbin (o, reg d, operand a, operand b)
    | Op.Un (o, d, a) -> Un (o, reg d, operand a)
    | Op.Load { dst; base; offset } ->
        Load (reg dst, operand base, operand offset, mem ())
    | Op.Store { src; base; offset } ->
        Store (operand src, operand base, operand offset, mem ())
    | Op.Addr { dst; obj } -> Addr (reg dst, Hashtbl.find st.global_addrs obj)
    | Op.Alloc { dst; size; site } -> Alloc (reg dst, operand size, site)
    | Op.Call { dst; callee; args } ->
        Call
          ( Option.fold ~none:(-1) ~some:reg dst,
            func_of st callee,
            Array.of_list (List.map operand args) )
    | Op.In { dst; index } -> In (reg dst, operand index)
    | Op.Out a -> Out (operand a)
    | Op.Move { dst; src } -> Move (reg dst, reg src)
    | Op.Cbr _ | Op.Jmp _ | Op.Ret _ ->
        assert false (* terminators end blocks, never bodies *)
  in
  let greg, gsense =
    match Op.guard op with
    | None -> (-1, true)
    | Some { Op.greg; gsense } -> (reg greg, gsense)
  in
  { id = Op.id op; instr; greg; gsense }

let decode_block st pool fn b =
  let term =
    match Op.kind (Block.term b) with
    | Op.Jmp l -> Jmp (Cfg.block_index fn.cfg l)
    | Op.Cbr { cond; if_true; if_false } ->
        Cbr
          ( operand pool cond,
            Cfg.block_index fn.cfg if_true,
            Cfg.block_index fn.cfg if_false )
    | Op.Ret r -> Ret (Option.fold ~none:(-1) ~some:(operand pool) r)
    | _ -> assert false (* [Block.v] only takes terminators *)
  in
  let body = Array.of_list (List.map (decode_op st pool) (Block.body b)) in
  {
    body;
    term;
    term_id = Op.id (Block.term b);
    calls =
      Array.exists
        (fun op -> match op.instr with Call _ -> true | _ -> false)
        body;
  }

let code_of st fn =
  match fn.code with
  | Some c -> c
  | None ->
      let pool = { next = Func.reg_count fn.func; imms = [] } in
      let blocks =
        Array.init (Cfg.num_blocks fn.cfg) (fun i ->
            decode_block st pool fn (Cfg.block fn.cfg i))
      in
      let template = cells pool.next in
      List.iteri
        (fun i o ->
          let k = pool.next - 1 - i in
          match o with
          | Op.Imm x -> set_int template k x
          | Op.Fimm f -> set_float template k f
          | Op.Reg _ -> ())
        pool.imms;
      let c = { blocks; template } in
      fn.code <- Some c;
      c

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* The offset is read first, then the base, so a float in both is
   reported by its offset. *)
let[@inline] address regs b o =
  let off = get_int regs o in
  get_int regs b + off

(** A frame for [fn] called with slots [args] of [caller]. *)
let enter st fn caller args =
  if Array.length args <> Array.length fn.params then
    runtime_error "arity mismatch calling %s" (Func.name fn.func);
  let regs = copy_cells (code_of st fn).template in
  Array.iteri (fun i p -> copy caller args.(i) regs p) fn.params;
  regs

let[@inline] tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.fuel then runtime_error "out of fuel"

(** Run [fn] in frame [regs] from block [bi]; the returned slot, or
    [-1] for none.  Each op and terminator is a step.  A block whose
    body cannot run out of fuel and calls nothing takes its body's
    steps at once; the others take them one op at a time, so fuel runs
    out at the op where it does, and a callee sees the steps before
    its call. *)
let rec run_block st fn code regs bi =
  fn.counts.(bi) <- fn.counts.(bi) + 1;
  let b = code.blocks.(bi) in
  let n = Array.length b.body in
  if b.calls || st.steps + n > st.fuel then
    for k = 0 to n - 1 do
      tick st;
      exec_op st regs b.body.(k)
    done
  else begin
    st.steps <- st.steps + n;
    for k = 0 to n - 1 do
      exec_op st regs b.body.(k)
    done
  end;
  tick st;
  match b.term with
  | Jmp l -> run_block st fn code regs l
  | Cbr (c, t, f) ->
      run_block st fn code regs (if get_int regs c <> 0 then t else f)
  | Ret r -> r

(* An unguarded op runs once per visit of its block, and [profile]
   counts it from the block's count; a guarded op is counted each time
   its guard lets it run. *)
and exec_op st regs op =
  if op.greg >= 0 && not (Bool.equal (get_int regs op.greg <> 0) op.gsense)
  then () (* nullified: no effect, not profiled *)
  else begin
    if op.greg >= 0 then st.op_counts.(op.id) <- st.op_counts.(op.id) + 1;
    match op.instr with
    | Ibin (o, d, a, b) -> eval_ibin o regs a b regs d
    | Fbin (o, d, a, b) -> eval_fbin o regs a b regs d
    | Un (o, d, a) -> eval_un o regs a regs d
    | Load (d, b, o, m) ->
        let addr = address regs b o in
        let ob = access st op.id m addr in
        let i = (addr - ob.base) / word in
        if i < Array.length ob.cells.ints then copy ob.cells i regs d
        else set_int regs d 0
    | Store (s, b, o, m) ->
        let addr = address regs b o in
        let ob = access st op.id m addr in
        let i = (addr - ob.base) / word in
        grow ob i;
        copy regs s ob.cells i
    | Addr (d, a) -> set_int regs d a
    | Alloc (d, size, site) ->
        let bytes = get_int regs size in
        if bytes < 0 then runtime_error "negative allocation";
        let rounded = (bytes + word - 1) / word * word in
        let base = st.heap_next in
        st.heap_next <- base + rounded + 64;
        let s = site_of st site in
        add_obj st { base; bytes = rounded; obj = s.sobj; cells = cells 0 };
        s.sbytes <- s.sbytes + bytes;
        set_int regs d base
    | Call (d, g, args) ->
        let callee = enter st g regs args in
        let r = run_block st g (code_of st g) callee 0 in
        if d >= 0 then
          if r >= 0 then copy callee r regs d
          else
            runtime_error "call to %s expected a result but none returned"
              (Func.name g.func)
    | In (d, index) ->
        let i = get_int regs index in
        if i < 0 || i >= Array.length st.input then
          runtime_error "input index %d out of bounds (input has %d words)" i
            (Array.length st.input);
        set_int regs d st.input.(i)
    | Out a -> st.outputs_rev <- get regs a :: st.outputs_rev
    | Move (d, s) -> copy regs s regs d
  end

(** The run's profile, built once from the dense counts: a finished
    run finished every block visit it began, so an unguarded op or a
    terminator ran as often as its block. *)
let profile st =
  let blocks = ref [] in
  Hashtbl.iter
    (fun name fn ->
      Array.iteri
        (fun i n ->
          if n > 0 then
            blocks := ((name, Block.label (Cfg.block fn.cfg i)), n) :: !blocks)
        fn.counts;
      Option.iter
        (fun code ->
          Array.iteri
            (fun i b ->
              let n = fn.counts.(i) in
              for k = 0 to Array.length b.body - 1 do
                let op = b.body.(k) in
                if op.greg < 0 then st.op_counts.(op.id) <- n
              done;
              st.op_counts.(b.term_id) <- n)
            code.blocks)
        fn.code)
    st.funcs;
  Profile.make ~blocks:!blocks ~ops:st.op_counts
    ~accesses:
      (Array.map (List.rev_map (fun t -> (t.tobj, t.n))) st.touches)
    ~heap_sizes:
      (Hashtbl.fold (fun s x acc -> (s, x.sbytes) :: acc) st.sites []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b))

(* ------------------------------------------------------------------ *)

type result = {
  outputs : value list;
  steps : int;
  profile : Profile.t;
  return_value : value option;
}

let default_fuel = 50_000_000

(** Run [prog] on workload [input].  Raises [Runtime_error] on dynamic
    errors (wild access, division by zero, fuel exhaustion). *)
let run ?(fuel = default_fuel) prog ~input : result =
  let st = init_state prog ~input ~fuel in
  let main = func_of st (Func.name (Prog.main prog)) in
  let regs = enter st main (cells 0) [||] in
  let r = run_block st main (code_of st main) regs 0 in
  Telemetry.incr "interp.steps" ~by:st.steps;
  {
    outputs = List.rev st.outputs_rev;
    steps = st.steps;
    profile = profile st;
    return_value = (if r >= 0 then Some (get regs r) else None);
  }
