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
    prop_interp_deterministic;
  ]
