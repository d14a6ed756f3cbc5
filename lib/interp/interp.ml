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

    The engine is flat.  Each function is decoded at its first call into
    arrays of ops with register indices, boxed immediates and resolved
    branch targets and callees.  Memory is one word array per data
    object, found by binary search over the objects' base addresses.
    The profile is counted in dense arrays and turned into a
    [Profile.t] once, when the run ends. *)

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

let to_int = function
  | VInt i -> i
  | VFloat f -> runtime_error "expected an int value, found float %g" f

(* Words read from zero-initialized storage are VInt 0; float code may
   legitimately read them, so ints promote to floats silently. *)
let to_float = function VFloat f -> f | VInt i -> float_of_int i

let global_base = 0x1000
let heap_base = 0x1000000
let word = Data.word_bytes

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

let eval_ibin op a b =
  let a = to_int a and b = to_int b in
  let bool_ c = VInt (if c then 1 else 0) in
  match (op : Op.ibinop) with
  | Op.Add -> VInt (a + b)
  | Op.Sub -> VInt (a - b)
  | Op.Mul -> VInt (a * b)
  | Op.Div -> if b = 0 then runtime_error "division by zero" else VInt (a / b)
  | Op.Rem -> if b = 0 then runtime_error "remainder by zero" else VInt (a mod b)
  | Op.And -> VInt (a land b)
  | Op.Or -> VInt (a lor b)
  | Op.Xor -> VInt (a lxor b)
  | Op.Shl -> VInt (a lsl b)
  | Op.Shr -> VInt (a asr b)
  | Op.Icmp Op.Ceq -> bool_ (a = b)
  | Op.Icmp Op.Cne -> bool_ (a <> b)
  | Op.Icmp Op.Clt -> bool_ (a < b)
  | Op.Icmp Op.Cle -> bool_ (a <= b)
  | Op.Icmp Op.Cgt -> bool_ (a > b)
  | Op.Icmp Op.Cge -> bool_ (a >= b)

let eval_fbin op a b =
  let a = to_float a and b = to_float b in
  let bool_ c = VInt (if c then 1 else 0) in
  match (op : Op.fbinop) with
  | Op.Fadd -> VFloat (a +. b)
  | Op.Fsub -> VFloat (a -. b)
  | Op.Fmul -> VFloat (a *. b)
  | Op.Fdiv -> VFloat (a /. b)
  | Op.Fcmp Op.Ceq -> bool_ (a = b)
  | Op.Fcmp Op.Cne -> bool_ (a <> b)
  | Op.Fcmp Op.Clt -> bool_ (a < b)
  | Op.Fcmp Op.Cle -> bool_ (a <= b)
  | Op.Fcmp Op.Cgt -> bool_ (a > b)
  | Op.Fcmp Op.Cge -> bool_ (a >= b)

let eval_un op a =
  match (op : Op.unop) with
  | Op.Neg -> VInt (-to_int a)
  | Op.Not -> VInt (if to_int a = 0 then 1 else 0)
  | Op.Copy -> a
  | Op.Itof -> VFloat (to_float a)
  | Op.Ftoi -> VInt (int_of_float (to_float a))

(* ------------------------------------------------------------------ *)
(* Decoded code                                                        *)

type operand = Var of int | Const of value

type instr =
  | Ibin of Op.ibinop * int * operand * operand
  | Fbin of Op.fbinop * int * operand * operand
  | Un of Op.unop * int * operand
  | Load of int * operand * operand
  | Store of operand * operand * operand
  | Addr of int * value
  | Alloc of int * operand * int
  | Call of int * func * operand list  (** destination, [-1] for none *)
  | In of int * operand
  | Out of operand
  | Move of int * int  (** destination, source *)

and op = { id : int; instr : instr; greg : int; gsense : bool }
(** [greg] is [-1] for an unguarded op *)

and term = Jmp of int | Cbr of operand * int * int | Ret of operand option

and block = { body : op array; term : term; term_id : int }

and func = {
  func : Func.t;
  cfg : Cfg.t;
  counts : int array;  (** executions per block *)
  mutable code : block array option;  (** decoded at the first call *)
}

(* ------------------------------------------------------------------ *)
(* Machine state                                                       *)

(** A data object: a global or one heap block.  [cells] holds its words
    and grows to cover the highest word written; words past its end
    read 0. *)
type obj = {
  base : int;
  bytes : int;
  obj : Data.obj;  (** one value per global or malloc site *)
  mutable cells : value array;
}

(** A malloc site: its object and the bytes allocated there so far. *)
type site = { sobj : Data.obj; mutable sbytes : int }

(** An object a memory op touched and how often.  Each op keeps its
    touches newest first; objects are compared physically, since each
    has one [Data.obj] value. *)
type touch = { tobj : Data.obj; mutable n : int }

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

let check_access st addr =
  if addr mod word <> 0 then
    runtime_error "misaligned access at address 0x%x" addr;
  let i = find_obj st addr in
  if i < 0 then runtime_error "wild memory access at address 0x%x" addr;
  st.objs.(i)

let load_word o addr =
  let i = (addr - o.base) / word in
  if i < Array.length o.cells then o.cells.(i) else VInt 0

let store_word o addr v =
  let i = (addr - o.base) / word in
  let n = Array.length o.cells in
  if i >= n then begin
    let len = min (o.bytes / word) (max (i + 1) (2 * n)) in
    let cells = Array.make len (VInt 0) in
    Array.blit o.cells 0 cells 0 n;
    o.cells <- cells
  end;
  o.cells.(i) <- v

let rec bump_touch obj = function
  | [] -> false
  | t :: rest ->
      if t.tobj == obj then begin
        t.n <- t.n + 1;
        true
      end
      else bump_touch obj rest

let touch st id obj =
  if not (bump_touch obj st.touches.(id)) then
    st.touches.(id) <- { tobj = obj; n = 1 } :: st.touches.(id)

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
      let cells =
        match g.Data.g_init with
        | Data.Zero -> [||]
        | Data.Words ws ->
            Array.map
              (fun w ->
                if g.Data.g_is_float then VFloat (Int64.float_of_bits w)
                else VInt (Int64.to_int w))
              ws
      in
      add_obj st { base; bytes; obj = Data.Global g.Data.g_name; cells };
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
        { func; cfg; counts = Array.make (Cfg.num_blocks cfg) 0; code = None }
      in
      Hashtbl.replace st.funcs name fn;
      fn

let operand = function
  | Op.Reg r -> Var (Reg.to_int r)
  | Op.Imm i -> Const (VInt i)
  | Op.Fimm f -> Const (VFloat f)

let decode_op st (op : Op.t) =
  let reg = Reg.to_int in
  let instr =
    match Op.kind op with
    | Op.Ibin (o, d, a, b) -> Ibin (o, reg d, operand a, operand b)
    | Op.Fbin (o, d, a, b) -> Fbin (o, reg d, operand a, operand b)
    | Op.Un (o, d, a) -> Un (o, reg d, operand a)
    | Op.Load { dst; base; offset } ->
        Load (reg dst, operand base, operand offset)
    | Op.Store { src; base; offset } ->
        Store (operand src, operand base, operand offset)
    | Op.Addr { dst; obj } ->
        Addr (reg dst, VInt (Hashtbl.find st.global_addrs obj))
    | Op.Alloc { dst; size; site } -> Alloc (reg dst, operand size, site)
    | Op.Call { dst; callee; args } ->
        Call
          ( Option.fold ~none:(-1) ~some:reg dst,
            func_of st callee,
            List.map operand args )
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

let decode_block st fn b =
  let term =
    match Op.kind (Block.term b) with
    | Op.Jmp l -> Jmp (Cfg.block_index fn.cfg l)
    | Op.Cbr { cond; if_true; if_false } ->
        Cbr
          ( operand cond,
            Cfg.block_index fn.cfg if_true,
            Cfg.block_index fn.cfg if_false )
    | Op.Ret r -> Ret (Option.map operand r)
    | _ -> assert false (* [Block.v] only takes terminators *)
  in
  {
    body = Array.of_list (List.map (decode_op st) (Block.body b));
    term;
    term_id = Op.id (Block.term b);
  }

let code_of st fn =
  match fn.code with
  | Some c -> c
  | None ->
      let c =
        Array.init (Cfg.num_blocks fn.cfg) (fun i ->
            decode_block st fn (Cfg.block fn.cfg i))
      in
      fn.code <- Some c;
      c

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

let value regs = function Var r -> regs.(r) | Const v -> v

let rec exec_func st fn (args : value list) : value option =
  let regs = Array.make (Func.reg_count fn.func) (VInt 0) in
  (try
     List.iter2
       (fun p a -> regs.(Reg.to_int p) <- a)
       (Func.params fn.func) args
   with Invalid_argument _ ->
     runtime_error "arity mismatch calling %s" (Func.name fn.func));
  run_block st fn (code_of st fn) regs 0

and run_block st fn code regs bi =
  fn.counts.(bi) <- fn.counts.(bi) + 1;
  let b = code.(bi) in
  for k = 0 to Array.length b.body - 1 do
    exec_op st regs b.body.(k)
  done;
  st.steps <- st.steps + 1;
  if st.steps > st.fuel then runtime_error "out of fuel";
  st.op_counts.(b.term_id) <- st.op_counts.(b.term_id) + 1;
  match b.term with
  | Jmp l -> run_block st fn code regs l
  | Cbr (c, t, f) ->
      run_block st fn code regs (if to_int (value regs c) <> 0 then t else f)
  | Ret None -> None
  | Ret (Some o) -> Some (value regs o)

and exec_op st regs op =
  st.steps <- st.steps + 1;
  if st.steps > st.fuel then runtime_error "out of fuel";
  if op.greg >= 0 && not (Bool.equal (to_int regs.(op.greg) <> 0) op.gsense)
  then () (* nullified: no effect, not profiled *)
  else begin
    st.op_counts.(op.id) <- st.op_counts.(op.id) + 1;
    match op.instr with
    | Ibin (o, d, a, b) -> regs.(d) <- eval_ibin o (value regs a) (value regs b)
    | Fbin (o, d, a, b) -> regs.(d) <- eval_fbin o (value regs a) (value regs b)
    | Un (o, d, a) -> regs.(d) <- eval_un o (value regs a)
    | Load (d, b, o) ->
        let addr = to_int (value regs b) + to_int (value regs o) in
        let ob = check_access st addr in
        touch st op.id ob.obj;
        regs.(d) <- load_word ob addr
    | Store (s, b, o) ->
        let addr = to_int (value regs b) + to_int (value regs o) in
        let ob = check_access st addr in
        touch st op.id ob.obj;
        store_word ob addr (value regs s)
    | Addr (d, a) -> regs.(d) <- a
    | Alloc (d, size, site) ->
        let bytes = to_int (value regs size) in
        if bytes < 0 then runtime_error "negative allocation";
        let rounded = (bytes + word - 1) / word * word in
        let base = st.heap_next in
        st.heap_next <- base + rounded + 64;
        let s = site_of st site in
        add_obj st { base; bytes = rounded; obj = s.sobj; cells = [||] };
        s.sbytes <- s.sbytes + bytes;
        regs.(d) <- VInt base
    | Call (d, g, args) -> (
        let vals = List.map (value regs) args in
        match exec_func st g vals with
        | Some r when d >= 0 -> regs.(d) <- r
        | _ when d < 0 -> ()
        | _ ->
            runtime_error "call to %s expected a result but none returned"
              (Func.name g.func))
    | In (d, index) ->
        let i = to_int (value regs index) in
        if i < 0 || i >= Array.length st.input then
          runtime_error "input index %d out of bounds (input has %d words)" i
            (Array.length st.input);
        regs.(d) <- VInt st.input.(i)
    | Out a -> st.outputs_rev <- value regs a :: st.outputs_rev
    | Move (d, s) -> regs.(d) <- regs.(s)
  end

(** The run's profile, built once from the dense counts. *)
let profile st =
  let blocks = ref [] in
  Hashtbl.iter
    (fun name fn ->
      Array.iteri
        (fun i n ->
          if n > 0 then
            blocks := ((name, Block.label (Cfg.block fn.cfg i)), n) :: !blocks)
        fn.counts)
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
  let ret = exec_func st (func_of st (Func.name (Prog.main prog))) [] in
  {
    outputs = List.rev st.outputs_rev;
    steps = st.steps;
    profile = profile st;
    return_value = ret;
  }
