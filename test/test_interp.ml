(** Interpreter and profiler tests. *)

module I = Vliw_interp.Interp
module P = Vliw_interp.Profile

let test_arith () =
  let prog =
    Helpers.compile
      {|
void main() {
  out(7 / 2);
  out(-7 / 2);
  out(7 % 3);
  out(1 << 4);
  out(-16 >> 2);
  out(6 & 3);
  out(6 | 3);
  out(6 ^ 3);
  out(!0);
  out(!5);
  out(-(3));
}
|}
  in
  Alcotest.(check (list int)) "values"
    [ 3; -3; 1; 16; -4; 2; 7; 5; 1; 0; -3 ]
    (Helpers.int_outputs prog)

let test_float_arith () =
  let prog =
    Helpers.compile
      {|
void main() {
  float a = 1.5;
  float b = 0.25;
  outf(a + b);
  outf(a * b);
  outf(a / b);
  out(ftoi(a * 2.0));
  outf(itof(7) / 2.0);
  out(a > b);
  out(a < b);
}
|}
  in
  match (Helpers.run prog).I.outputs with
  | [ VFloat 1.75; VFloat 0.375; VFloat 6.; VInt 3; VFloat 3.5; VInt 1; VInt 0 ]
    ->
      ()
  | outs ->
      Alcotest.failf "bad outputs %a" Fmt.(list ~sep:sp I.pp_value) outs

let test_control_flow () =
  let prog =
    Helpers.compile
      {|
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
void main() {
  out(fib(10));
  int s = 0;
  int i = 0;
  while (i < 5) { s = s + i * i; i = i + 1; }
  out(s);
}
|}
  in
  Alcotest.(check (list int)) "values" [ 55; 30 ] (Helpers.int_outputs prog)

let test_heap_and_input () =
  let prog =
    Helpers.compile
      {|
void main() {
  int *p = malloc(4);
  int *q = malloc(4);
  for (int i = 0; i < 4; i = i + 1) { p[i] = in(i); q[i] = in(i) * 10; }
  out(p[2] + q[1]);
}
|}
  in
  Alcotest.(check (list int)) "values" [ 23 ]
    (Helpers.int_outputs ~input:[| 5; 2; 3; 4 |] prog)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_runtime_error src ?(input = [||]) fragment =
  let prog = Helpers.compile src in
  match I.run prog ~input with
  | _ -> Alcotest.failf "expected a runtime error mentioning %S" fragment
  | exception I.Runtime_error m ->
      if not (contains m fragment) then
        Alcotest.failf "error %S does not mention %S" m fragment

let test_runtime_errors () =
  expect_runtime_error "int z; void main() { out(3 / z); }" "division by zero";
  expect_runtime_error "int a[2]; void main() { out(a[5]); }" "wild memory";
  expect_runtime_error "void main() { out(in(3)); }" "out of bounds";
  expect_runtime_error
    "void main() { while (1) { int x = 0; } }" "out of fuel"

let test_out_of_bounds_heap () =
  expect_runtime_error
    "void main() { int *p = malloc(2); out(p[2]); }" "wild memory"

(* ------------------------------------------------------------------ *)
(* Object lookup at the boundaries, in both engines                    *)

(** The program on one cluster, so the cycle simulator can run it
    without a profile: every op on cluster 0, no moves. *)
let one_cluster prog =
  let a = Vliw_sched.Assignment.create ~num_clusters:1 in
  Vliw_ir.Prog.iter_ops
    (fun op -> Vliw_sched.Assignment.set_cluster a ~op_id:(Vliw_ir.Op.id op) 0)
    prog;
  Vliw_sched.Move_insert.apply prog a

type outcome = Outputs of int list | Wild

(** Run [src] through the interpreter and through the simulator; each
    must give [expect]: those outputs, or its own wild-access error. *)
let check_both_engines name ~input src expect =
  let prog = Helpers.compile src in
  let show = function
    | Outputs os -> Fmt.str "outputs [%a]" Fmt.(list ~sep:sp int) os
    | Wild -> "a wild access"
  in
  let ints = List.map (function I.VInt i -> i | I.VFloat _ -> min_int) in
  let got engine run ~wild =
    match run () with
    | outs -> Outputs (ints outs)
    | exception (I.Runtime_error m | Vliw_sched.Vliw_sim.Sim_error m) ->
        if List.exists (contains m) wild then Wild
        else Alcotest.failf "%s, %s: unexpected error %S" name engine m
  in
  let check engine outcome =
    if outcome <> expect then
      Alcotest.failf "%s, %s: expected %s, got %s" name engine (show expect)
        (show outcome)
  in
  check "interpreter"
    (got "interpreter" ~wild:[ "wild memory access" ] (fun () ->
         (I.run prog ~input).I.outputs));
  check "simulator"
    (got "simulator" ~wild:[ "wild load"; "wild store" ] (fun () ->
         (Vliw_sched.Vliw_sim.run (one_cluster prog)
            ~machine:(Vliw_machine.scaled_machine ~clusters:1 ())
            ~input ())
           .Vliw_sched.Vliw_sim.outputs))

let test_object_bounds () =
  (* globals: a at 0x1000 (two words), then a 64-byte guard gap, then b *)
  let globals i =
    check_both_engines (Fmt.str "a[%d]" i) ~input:[| i |]
      "int a[2] = {4, 5}; int b[2] = {6, 7}; void main() { out(a[in(0)]); }"
  in
  globals 1 (Outputs [ 5 ]) (* last word of a global *);
  globals 2 Wild (* one past the end *);
  globals 7 Wild (* inside the guard gap *);
  globals 10 (Outputs [ 6 ]) (* past the gap: the next global's first word *);
  globals (-1) Wild (* below the first object *);
  check_both_engines "last word of a malloc block" ~input:[| 2 |]
    "void main() { int *p = malloc(3); p[in(0)] = 9; out(p[2]); }"
    (Outputs [ 9 ]);
  check_both_engines "one past a malloc block" ~input:[| 3 |]
    "void main() { int *p = malloc(3); out(p[in(0)]); }" Wild;
  check_both_engines "p[0] after malloc(0)" ~input:[| 0 |]
    "void main() { int *p = malloc(0); int *q = malloc(1); q[0] = 1; \
     out(p[in(0)]); }"
    Wild

let test_object_bounds_loop () =
  (* one malloc site, three blocks: each iteration writes the last word
     of the new block and reads the last word of the previous one *)
  let src =
    {|
void main() {
  int *p = malloc(1);
  p[0] = 100;
  int s = 0;
  for (int i = 1; i <= 3; i = i + 1) {
    int *q = malloc(i + 1);
    q[i] = i;
    s = s + q[i] * 10 + p[i - 1];
    p = q;
  }
  out(s);
  out(p[in(0)]);
}
|}
  in
  check_both_engines "blocks from one site" ~input:[| 3 |] src
    (Outputs [ 163; 3 ]);
  check_both_engines "one past the last block" ~input:[| 4 |] src Wild

let test_profile_counts () =
  let prog =
    Helpers.compile ~unroll:false
      {|
int a[4] = {1, 2, 3, 4};
void main() {
  int s = 0;
  for (int i = 0; i < 4; i = i + 1) { s = s + a[i]; }
  out(s);
}
|}
  in
  let res = Helpers.run prog in
  (* find the load of a[i]: executed 4 times, all on @a *)
  let found = ref false in
  Vliw_ir.Prog.iter_ops
    (fun op ->
      if Vliw_ir.Op.is_load op then begin
        let accesses = P.accesses_of res.I.profile ~op_id:(Vliw_ir.Op.id op) in
        match accesses with
        | [ (Vliw_ir.Data.Global "a", 4) ] -> found := true
        | _ -> ()
      end)
    prog;
  Alcotest.(check bool) "a loaded 4x" true !found

let test_heap_profile_sizes () =
  let prog =
    Helpers.compile
      "void main() { int *p = malloc(10); p[0] = 1; out(p[0]); }"
  in
  let res = Helpers.run prog in
  Alcotest.(check (list (pair int int))) "heap sizes" [ (0, 80) ]
    (P.heap_sizes res.I.profile);
  let tab = P.object_table prog res.I.profile in
  Alcotest.(check int) "heap object size" 80
    (Vliw_ir.Data.size_of_obj tab (Vliw_ir.Data.Heap 0))

let test_block_counts () =
  let prog =
    Helpers.compile ~unroll:false
      "void main() { for (int i = 0; i < 7; i = i + 1) { out(i); } }"
  in
  let res = Helpers.run prog in
  (* some block executed exactly 7 times (the loop body) *)
  let sevens = ref 0 in
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          if
            P.block_count res.I.profile ~func:(Vliw_ir.Func.name f)
              ~label:(Vliw_ir.Block.label b)
            = 7
          then incr sevens)
        (Vliw_ir.Func.blocks f))
    (Vliw_ir.Prog.funcs prog);
  Alcotest.(check bool) "loop body counted" true (!sevens >= 1)

let test_determinism () =
  let b = Benchsuite.Suite.find "rawcaudio" in
  let prog = Benchsuite.Suite.compile b in
  let r1 = I.run prog ~input:b.Benchsuite.Bench_intf.input in
  let r2 = I.run prog ~input:b.Benchsuite.Bench_intf.input in
  Alcotest.(check bool) "same outputs" true
    (Helpers.equal_outputs r1.I.outputs r2.I.outputs);
  Alcotest.(check int) "same steps" r1.I.steps r2.I.steps

(* ------------------------------------------------------------------ *)
(* Tag rules, in both engines                                          *)

module B = Vliw_ir.Builder
module Op = Vliw_ir.Op

type runs = {
  interp : (I.value list, string) result;
  clustered : (I.value list, string) result;  (** the interpreter on it *)
  sim : (I.value list, string) result;
  moves : int;  (** Move ops in the clustered program *)
}

(** [prog] through the interpreter, and clustered on the paper machine
    through the interpreter and the simulator: ops for which [on1]
    holds on cluster 1, the rest on cluster 0. *)
let tag_runs ?(on1 = fun _ -> false) prog =
  let a = Vliw_sched.Assignment.create ~num_clusters:2 in
  Vliw_ir.Prog.iter_ops
    (fun op ->
      Vliw_sched.Assignment.set_cluster a ~op_id:(Op.id op)
        (if on1 op then 1 else 0))
    prog;
  let c = Vliw_sched.Move_insert.apply prog a in
  let cprog = c.Vliw_sched.Move_insert.cprog in
  let interp p =
    match I.run p ~input:[||] with
    | r -> Ok r.I.outputs
    | exception I.Runtime_error m -> Error m
  in
  {
    interp = interp prog;
    clustered = interp cprog;
    sim =
      (match
         Vliw_sched.Vliw_sim.run c ~machine:(Vliw_machine.paper_machine ())
           ~input:[||] ()
       with
      | r -> Ok r.Vliw_sched.Vliw_sim.outputs
      | exception Vliw_sched.Vliw_sim.Sim_error m -> Error m);
    moves =
      Vliw_ir.Prog.fold_ops
        (fun n op -> if Op.is_move op then n + 1 else n)
        0 cprog;
  }

let engines r =
  [ ("interpreter", r.interp); ("clustered interpreter", r.clustered);
    ("simulator", r.sim) ]

let expect_outputs what expected r =
  List.iter
    (fun (engine, got) ->
      match got with
      | Ok outs -> Helpers.check_outputs (what ^ ", " ^ engine) expected outs
      | Error m -> Alcotest.failf "%s, %s: %s" what engine m)
    (engines r)

(** Every engine stops on a float [v] where an int belongs; the
    simulator wraps the interpreter's message. *)
let expect_float_error what v r =
  let msg = Fmt.str "expected an int value, found float %g" v in
  List.iter
    (fun (engine, got) ->
      let want =
        if engine = "simulator" then "runtime error: " ^ msg else msg
      in
      match got with
      | Error m when m = want -> ()
      | Error m ->
          Alcotest.failf "%s, %s: error %S, expected %S" what engine m want
      | Ok _ -> Alcotest.failf "%s, %s: ran, expected %S" what engine want)
    (engines r)

(** A [main] built by [body] (which may add blocks), with a two-word
    global [g]. *)
let hand_built body =
  let b = B.create () in
  B.add_global b (Vliw_ir.Data.global "g" 2);
  let fb, _ = B.start_func b ~name:"main" ~nparams:0 in
  B.start_block fb (B.fresh_label fb);
  body fb;
  if B.in_block fb then B.terminate fb (Op.Ret None);
  let (_ : Vliw_ir.Func.t) = B.finish_func fb in
  B.finish b

(** [prog] with op [op_id] guarded by [greg]. *)
let with_guard prog ~op_id greg =
  let guard op =
    if Op.id op = op_id then Op.with_guard op { Op.greg; gsense = true } else op
  in
  Vliw_ir.Prog.v ~globals:(Vliw_ir.Prog.globals prog)
    ~funcs:
      (List.map
         (Vliw_ir.Func.map_blocks (fun blk ->
              Vliw_ir.Block.with_body blk
                (List.map guard (Vliw_ir.Block.body blk))))
         (Vliw_ir.Prog.funcs prog))
    ~op_count:(Vliw_ir.Prog.op_count prog)

(** A register holding float [x]. *)
let float_reg fb x = B.un fb Op.Copy (Op.Fimm x)

let is_out op = match Op.kind op with Op.Out _ -> true | _ -> false

let test_tag_rules () =
  (* zero-initialized storage holds int 0, also in a float object, and
     a float op promotes it *)
  let prog =
    Helpers.compile "float g[2]; void main() { outf(g[1]); outf(g[0] * 2.0); }"
  in
  expect_outputs "zero float word" [ I.VInt 0; I.VFloat 0. ] (tag_runs prog);
  (* a float keeps its tag and bits through Store/Load, Copy and Move,
     and -0. keeps its own immediate *)
  let r =
    tag_runs ~on1:is_out
      (hand_built (fun fb ->
           let neg = float_reg fb (-0.) and pos = float_reg fb 0. in
           let a = B.addr fb "g" in
           B.store fb ~src:(Op.Reg neg) ~base:(Op.Reg a) ~offset:(Op.Imm 8);
           let l = B.load fb ~base:(Op.Reg a) ~offset:(Op.Imm 8) in
           B.output fb (Op.Reg (B.un fb Op.Copy (Op.Reg l)));
           B.output fb (Op.Reg pos)))
  in
  Alcotest.(check bool) "outputs moved across clusters" true (r.moves >= 2);
  expect_outputs "float through memory, copies and moves"
    [ I.VFloat (-0.); I.VFloat 0. ] r;
  (* an int operand promotes in a float op *)
  expect_outputs "promotion"
    [ I.VFloat 2.25; I.VFloat 1.5; I.VInt 1; I.VFloat 2.; I.VInt 2 ]
    (tag_runs
       (hand_built (fun fb ->
            let i = B.ibin fb Op.Add (Op.Imm 2) (Op.Imm 0) in
            List.iter
              (fun r -> B.output fb (Op.Reg r))
              [
                B.fbin fb Op.Fadd (Op.Reg i) (Op.Fimm 0.25);
                B.fbin fb Op.Fmul (Op.Imm 3) (Op.Fimm 0.5);
                B.fbin fb (Op.Fcmp Op.Clt) (Op.Imm 1) (Op.Fimm 1.5);
                B.un fb Op.Itof (Op.Reg i);
                B.un fb Op.Ftoi (Op.Reg i);
              ])));
  (* a float where an int belongs stops the run, naming the value *)
  let float_in what v body =
    expect_float_error what v (tag_runs (hand_built body))
  in
  float_in "int op" 2.5 (fun fb ->
      let f = float_reg fb 2.5 in
      B.output fb (Op.Reg (B.ibin fb Op.Add (Op.Reg f) (Op.Imm 1))));
  float_in "int op, both operands (the first is checked first)" 1.5 (fun fb ->
      let f1 = float_reg fb 1.5 and f2 = float_reg fb 2.5 in
      B.output fb (Op.Reg (B.ibin fb Op.Sub (Op.Reg f1) (Op.Reg f2))));
  float_in "negation" 2.5 (fun fb ->
      B.output fb (Op.Reg (B.un fb Op.Neg (Op.Reg (float_reg fb 2.5)))));
  float_in "branch condition" 2.5 (fun fb ->
      let f = float_reg fb 2.5 in
      let t = B.fresh_label fb and e = B.fresh_label fb in
      B.terminate fb (Op.Cbr { cond = Op.Reg f; if_true = t; if_false = e });
      List.iter
        (fun l ->
          B.start_block fb l;
          B.terminate fb (Op.Ret None))
        [ t; e ]);
  float_in "load address" 2.5 (fun fb ->
      let f = float_reg fb 2.5 in
      B.output fb (Op.Reg (B.load fb ~base:(Op.Reg f) ~offset:(Op.Imm 0))));
  float_in "load address, both parts (the offset is checked first)" 2.5
    (fun fb ->
      let f1 = float_reg fb 1.5 and f2 = float_reg fb 2.5 in
      B.output fb (Op.Reg (B.load fb ~base:(Op.Reg f1) ~offset:(Op.Reg f2))));
  float_in "store address" 2.5 (fun fb ->
      let f = float_reg fb 2.5 in
      B.store fb ~src:(Op.Imm 1) ~base:(Op.Reg f) ~offset:(Op.Imm 0));
  let guarded = ref None in
  let prog =
    hand_built (fun fb ->
        let f = float_reg fb 2.5 in
        guarded := Some (Op.id (B.emit fb (Op.Out (Op.Imm 1))), f))
  in
  let op_id, f = Option.get !guarded in
  expect_float_error "guard" 2.5 (tag_runs (with_guard prog ~op_id f));
  (* the simulator keeps a misaligned address inside an object as a
     cell of its own, which holds a float as it was stored; the
     interpreter traps the address *)
  let r =
    tag_runs
      (hand_built (fun fb ->
           let a = B.addr fb "g" in
           let f = float_reg fb 2.5 in
           B.store fb ~src:(Op.Reg f) ~base:(Op.Reg a) ~offset:(Op.Imm 4);
           List.iter
             (fun off ->
               B.output fb
                 (Op.Reg (B.load fb ~base:(Op.Reg a) ~offset:(Op.Imm off))))
             [ 4; 12 ]))
  in
  (match r.sim with
  | Ok outs ->
      Helpers.check_outputs "misaligned cells, simulator"
        [ I.VFloat 2.5; I.VInt 0 ] outs
  | Error m -> Alcotest.failf "misaligned cells, simulator: %s" m);
  match r.interp with
  | Error m ->
      Alcotest.(check string) "misaligned access, interpreter"
        "misaligned access at address 0x1004" m
  | Ok _ -> Alcotest.fail "misaligned access, interpreter: ran"

(* ------------------------------------------------------------------ *)
(* Engine results, pinned                                              *)

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

(** Tag and bits of each value. *)
let add_values b =
  List.iter (function
    | I.VInt i -> Printf.bprintf b "i%d;" i
    | I.VFloat f -> Printf.bprintf b "f%Lx;" (Int64.bits_of_float f))

(** A program's reference run: outputs, steps, return value, block
    and op counts, each op's accesses in order and heap sizes. *)
let reference_fingerprint (p : Gdp_core.Pipeline.prepared) =
  let module Pl = Gdp_core.Pipeline in
  let b = Buffer.create 4096 in
  let r = p.Pl.reference and prog = p.Pl.prog in
  add_values b r.I.outputs;
  Printf.bprintf b "|steps %d|ret " r.I.steps;
  add_values b (Option.to_list r.I.return_value);
  Buffer.add_string b "|blocks ";
  List.iter
    (fun f ->
      List.iter
        (fun blk ->
          Printf.bprintf b "%d;"
            (P.block_count r.I.profile ~func:(Vliw_ir.Func.name f)
               ~label:(Vliw_ir.Block.label blk)))
        (Vliw_ir.Func.blocks f))
    (Vliw_ir.Prog.funcs prog);
  Buffer.add_string b "|ops ";
  for op_id = 0 to Vliw_ir.Prog.op_count prog - 1 do
    Printf.bprintf b "%d" (P.op_count r.I.profile ~op_id);
    List.iter
      (fun (o, n) -> Printf.bprintf b ",%s:%d" (Vliw_ir.Data.obj_to_string o) n)
      (P.accesses_of r.I.profile ~op_id);
    Buffer.add_char b ';'
  done;
  Buffer.add_string b "|heap ";
  List.iter
    (fun (s, n) -> Printf.bprintf b "%d:%d;" s n)
    (P.heap_sizes r.I.profile);
  digest (Buffer.contents b)

(** A program's GDP-clustered paper-machine program through the
    interpreter (outputs, steps) and the simulator (outputs, cycles,
    moves). *)
let clustered_fingerprint (p : Gdp_core.Pipeline.prepared) =
  let module Pl = Gdp_core.Pipeline in
  let module M = Partition.Methods in
  let b = Buffer.create 256 in
  let input = p.Pl.bench.Benchsuite.Bench_intf.input in
  let ctx = Pl.context p in
  let c = (Helpers.evaluate ctx M.Gdp).Pl.outcome.M.clustered in
  let ci = I.run c.Vliw_sched.Move_insert.cprog ~input in
  add_values b ci.I.outputs;
  Printf.bprintf b "|steps %d|sim " ci.I.steps;
  let s =
    Vliw_sched.Vliw_sim.run c ~machine:ctx.M.machine
      ~objects_of:(M.objects_of ctx) ~input ()
  in
  add_values b s.Vliw_sched.Vliw_sim.outputs;
  Printf.bprintf b "|cycles %d|moves %d" s.Vliw_sched.Vliw_sim.cycles
    s.Vliw_sched.Vliw_sim.dynamic_moves;
  digest (Buffer.contents b)

(* Per benchmark, the reference and the clustered fingerprint. *)
let pinned_engine_suite =
  [
    ("rawcaudio", "991c06cc030bc9cb", "17d4e389c0179015");
    ("rawdaudio", "a1fbd190bdc491cc", "184475d2df71f140");
    ("g721enc", "ea8004eb77d59336", "f8a62a4d6b37c547");
    ("g721dec", "6641c2719febaa95", "54a65ee4bc67430b");
    ("cjpeg", "a650a1be6bd60f84", "a626d1f92db19836");
    ("djpeg", "00ecfb2bb5fc597b", "186e15bc3377c84f");
    ("mpeg2enc", "03890802ad10fc8f", "5e99bc527c130d51");
    ("mpeg2dec", "4afdf77c8fc6e6dc", "4dd3455220acf286");
    ("epic", "9c89ecf748230888", "2f51dfa538dc0346");
    ("unepic", "c7adcc83d93fb107", "726e1ce3b4cd9d8a");
    ("gsmenc", "70b88eb85282d445", "a2cb7a7acf05648d");
    ("gsmdec", "5c120aefa542af6b", "991d8c1faa8ade23");
    ("pegwit", "ca0626657da6dcb4", "945f9b57ad4d2a3d");
    ("fir", "64ce5c7da579dba2", "4595a3dd8dba3da4");
    ("fsed", "9d9c90a53d390204", "b32d152a1b21ff32");
    ("sobel", "cd36edb4a7b6979d", "3e75869e515effea");
    ("viterbi", "4f7352398669a27e", "aed737b1d8f68b24");
    ("iirflt", "08b8101d0d1e0012", "71cd642867b7c965");
  ]

(* The digest of the 200 generated programs' sources (seeds 0-199),
   and of their fingerprints. *)
let pinned_engine_generated = ("b56e7ddd4774d217", "1a4bc256d185d575")

(* GDP draws from the stdlib [Random], whose stream differs between
   compiler releases, so under another stream the clustered programs
   are not the recorded ones and only the reference runs are compared,
   as [Test_partition.test_pinned_compiles] keeps only the methods that
   draw nothing.  The generated programs come from [Random] too: that
   half reports itself skipped, as the front end's generated pin
   does. *)
let test_engines_pinned () =
  let recorded =
    Test_partition.random_stream () = Test_partition.pinned_random_stream
  in
  let clustered p = if recorded then clustered_fingerprint p else "-" in
  Alcotest.(check (list (triple string string string)))
    "suite engine results"
    (List.map
       (fun (n, r, c) -> (n, r, if recorded then c else "-"))
       pinned_engine_suite)
    (List.map
       (fun (bench : Benchsuite.Bench_intf.t) ->
         let p = Gdp_core.Pipeline.prepare_default bench in
         (bench.name, reference_fingerprint p, clustered p))
       Benchsuite.Suite.all);
  let sources = List.init 200 Gen_minic.gen_program_with_seed in
  let ps, pe = pinned_engine_generated in
  if digest (String.concat "" (List.map digest sources)) <> ps then
    Alcotest.skip ();
  let prints =
    List.map
      (fun source ->
        let p =
          Gdp_core.Pipeline.prepare
            {
              Benchsuite.Bench_intf.name = "generated";
              description = "generated";
              source;
              input = Gen_minic.input;
              exhaustive_ok = false;
            }
        in
        reference_fingerprint p ^ clustered_fingerprint p)
      sources
  in
  Alcotest.(check string) "generated engine results" pe
    (digest (String.concat "" prints))

let prop_interp_deterministic =
  Helpers.qcheck ~count:40 "interpretation is deterministic"
    (fun seed ->
      let prog = Minic.compile (Gen_minic.gen_program_with_seed seed) in
      let a = I.run prog ~input:Gen_minic.input in
      let b = I.run prog ~input:Gen_minic.input in
      Helpers.equal_outputs a.I.outputs b.I.outputs && a.I.steps = b.I.steps)
    Gen_minic.arbitrary_program

let suite =
  [
    Alcotest.test_case "integer arithmetic" `Quick test_arith;
    Alcotest.test_case "float arithmetic" `Quick test_float_arith;
    Alcotest.test_case "control flow and recursion" `Quick test_control_flow;
    Alcotest.test_case "heap and input" `Quick test_heap_and_input;
    Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
    Alcotest.test_case "heap bounds checking" `Quick test_out_of_bounds_heap;
    Alcotest.test_case "object bounds in both engines" `Quick
      test_object_bounds;
    Alcotest.test_case "object bounds, one site in a loop" `Quick
      test_object_bounds_loop;
    Alcotest.test_case "per-op access profile" `Quick test_profile_counts;
    Alcotest.test_case "heap size profile" `Quick test_heap_profile_sizes;
    Alcotest.test_case "block counts" `Quick test_block_counts;
    Alcotest.test_case "benchmark determinism" `Quick test_determinism;
    Alcotest.test_case "tag rules in both engines" `Quick test_tag_rules;
    Alcotest.test_case "engine results pinned" `Quick test_engines_pinned;
    prop_interp_deterministic;
  ]
