(** Optimization pass tests: straightening, if-conversion, scalar
    promotion — unit behaviours plus semantic preservation. *)

open Vliw_ir

let diamond_src =
  {|
int g;
void main() {
  int x = in(0);
  if (x > 3) { g = x * 2; } else { g = x - 1; }
  if (x > 0) { out(g + 1); }
  out(g);
}
|}

let count_blocks prog =
  List.fold_left
    (fun acc f -> acc + List.length (Func.blocks f))
    0 (Prog.funcs prog)

let count_guarded prog =
  let n = ref 0 in
  Prog.iter_ops (fun op -> if Op.is_guarded op then incr n) prog;
  !n

let count_cbr prog =
  let n = ref 0 in
  Prog.iter_ops
    (fun op -> match Op.kind op with Op.Cbr _ -> incr n | _ -> ())
    prog;
  !n

let test_ifconvert_flattens_diamonds () =
  let prog = Helpers.compile ~unroll:false diamond_src in
  let conv = Vliw_opt.Ifconvert.run prog in
  Alcotest.(check bool) "fewer blocks" true
    (count_blocks conv < count_blocks prog);
  Alcotest.(check bool) "guards introduced" true (count_guarded conv > 0);
  Alcotest.(check int) "straight line" 0 (count_cbr conv)

let test_ifconvert_preserves_semantics () =
  let prog = Helpers.compile ~unroll:false diamond_src in
  let conv = Vliw_opt.Ifconvert.run prog in
  List.iter
    (fun x ->
      let input = [| x |] in
      Helpers.check_outputs "if-converted"
        (Vliw_interp.Interp.run prog ~input).outputs
        (Vliw_interp.Interp.run conv ~input).outputs)
    [ -5; 0; 1; 4; 100 ]

let test_ifconvert_keeps_loops () =
  let src =
    "void main() { int s = 0; for (int i = 0; i < in(0); i = i + 1) { s = s + i; } out(s); }"
  in
  let prog = Helpers.compile ~unroll:false src in
  let conv = Vliw_opt.Ifconvert.run prog in
  Alcotest.(check bool) "loop branch survives" true (count_cbr conv > 0);
  Helpers.check_outputs "loop semantics"
    (Vliw_interp.Interp.run prog ~input:[| 10 |]).outputs
    (Vliw_interp.Interp.run conv ~input:[| 10 |]).outputs

let test_ifconvert_skips_calls () =
  let src =
    {|
int f(int x) { return x + 1; }
void main() {
  int r = 0;
  if (in(0) > 0) { r = f(3); }
  out(r);
}
|}
  in
  let prog = Helpers.compile ~unroll:false src in
  let conv = Vliw_opt.Ifconvert.run prog in
  (* call-containing branches are not converted *)
  Alcotest.(check bool) "branch remains" true (count_cbr conv > 0);
  List.iter
    (fun x ->
      Helpers.check_outputs "semantics"
        (Vliw_interp.Interp.run prog ~input:[| x |]).outputs
        (Vliw_interp.Interp.run conv ~input:[| x |]).outputs)
    [ 0; 1 ]

let test_nested_if_conversion () =
  let src =
    {|
void main() {
  int x = in(0);
  int r = 0;
  if (x > 0) {
    if (x > 10) { r = 2; } else { r = 1; }
  } else {
    r = -1;
  }
  out(r);
}
|}
  in
  let prog = Helpers.compile ~unroll:false src in
  let conv = Vliw_opt.Ifconvert.run prog in
  Alcotest.(check int) "fully flattened" 0 (count_cbr conv);
  List.iter
    (fun x ->
      Helpers.check_outputs "nested"
        (Vliw_interp.Interp.run prog ~input:[| x |]).outputs
        (Vliw_interp.Interp.run conv ~input:[| x |]).outputs)
    [ -3; 0; 5; 11 ]

let test_straighten () =
  let prog = Helpers.compile ~unroll:false "void main() { out(1); out(2); }" in
  (* lowering of straight-line code may already be one block; straighten
     must at least be idempotent and preserve entry *)
  let s = Vliw_opt.Straighten.run prog in
  let s2 = Vliw_opt.Straighten.run s in
  Alcotest.(check int) "idempotent" (count_blocks s) (count_blocks s2);
  Helpers.check_outputs "semantics"
    (Vliw_interp.Interp.run prog ~input:[||]).outputs
    (Vliw_interp.Interp.run s ~input:[||]).outputs

let test_promote_scalars () =
  let src =
    {|
int acc;
void main() {
  for (int i = 0; i < 10; i = i + 1) { acc = acc + i; }
  out(acc);
}
|}
  in
  let prog = Helpers.compile ~unroll:false src in
  let promoted = Vliw_opt.Promote.run prog in
  (* the loop no longer loads/stores acc every iteration: memory op count
     drops to the entry load + exit store *)
  let count_mem p =
    let n = ref 0 in
    Prog.iter_ops (fun op -> if Op.is_mem op then incr n) p;
    !n
  in
  Alcotest.(check bool) "fewer memory ops" true
    (count_mem promoted < count_mem prog);
  Alcotest.(check int) "load + store remain" 2 (count_mem promoted);
  Helpers.check_outputs "semantics"
    (Vliw_interp.Interp.run prog ~input:[||]).outputs
    (Vliw_interp.Interp.run promoted ~input:[||]).outputs

let test_promote_skips_shared_globals () =
  let src =
    {|
int shared;
int bump(int d) { shared = shared + d; return shared; }
void main() {
  shared = 5;
  out(bump(3));
  out(shared);
}
|}
  in
  let prog = Helpers.compile ~unroll:false src in
  let promoted = Vliw_opt.Promote.run prog in
  (* shared is accessed from two functions: promotion must not touch it *)
  Helpers.check_outputs "semantics"
    (Vliw_interp.Interp.run prog ~input:[||]).outputs
    (Vliw_interp.Interp.run promoted ~input:[||]).outputs;
  let stores p =
    let n = ref 0 in
    Prog.iter_ops (fun op -> if Op.is_store op then incr n) p;
    !n
  in
  Alcotest.(check int) "stores unchanged" (stores prog) (stores promoted)

let test_promote_skips_escaping_address () =
  let src =
    {|
int cell;
void main() {
  int *p = &cell;
  p[0] = 9;
  out(cell);
}
|}
  in
  let prog = Helpers.compile ~unroll:false src in
  let promoted = Vliw_opt.Promote.run prog in
  Helpers.check_outputs "semantics"
    (Vliw_interp.Interp.run prog ~input:[||]).outputs
    (Vliw_interp.Interp.run promoted ~input:[||]).outputs

let test_constant_folding () =
  let prog =
    Helpers.compile ~unroll:false "void main() { out(2 + 3 * 4); out(10 / 0 + in(16)); }"
  in
  (* the first out's chain folds to a literal; division by a zero literal
     must NOT fold away (it still traps) *)
  let simplified = Vliw_opt.Simplify.run prog in
  let divs p =
    let n = ref 0 in
    Prog.iter_ops
      (fun op ->
        match Op.kind op with
        | Op.Ibin (Op.Div, _, _, _) -> incr n
        | _ -> ())
      p
  ;
    !n
  in
  Alcotest.(check int) "division kept" (divs prog) (divs simplified);
  let adds p =
    let n = ref 0 in
    Prog.iter_ops
      (fun op ->
        match Op.kind op with
        | Op.Ibin ((Op.Add | Op.Mul), _, Op.Imm _, Op.Imm _) -> incr n
        | _ -> ())
      p
  ;
    !n
  in
  Alcotest.(check bool) "constant ops folded" true (adds simplified < adds prog)

let test_copy_propagation () =
  let prog =
    Helpers.compile ~unroll:false
      "void main() { int a = in(0); int b = a; int c = b; out(c + 1); }"
  in
  let opt = Vliw_opt.Dce.run (Vliw_opt.Simplify.run prog) in
  let copies p =
    let n = ref 0 in
    Prog.iter_ops
      (fun op ->
        match Op.kind op with Op.Un (Op.Copy, _, _) -> incr n | _ -> ())
      p
  ;
    !n
  in
  Alcotest.(check bool) "copies removed" true (copies opt < copies prog);
  Helpers.check_outputs "semantics"
    (Vliw_interp.Interp.run prog ~input:Gen_minic.input).outputs
    (Vliw_interp.Interp.run opt ~input:Gen_minic.input).outputs

let test_dce_removes_dead_code () =
  let prog =
    Helpers.compile ~unroll:false
      "void main() { int dead = in(0) * 37; int live = in(1); out(live); }"
  in
  let opt = Vliw_opt.Dce.run prog in
  Alcotest.(check bool) "ops removed" true
    (Prog.num_ops opt < Prog.num_ops prog);
  Helpers.check_outputs "semantics"
    (Vliw_interp.Interp.run prog ~input:Gen_minic.input).outputs
    (Vliw_interp.Interp.run opt ~input:Gen_minic.input).outputs

let test_dce_keeps_stores_and_allocs () =
  let prog =
    Helpers.compile ~unroll:false
      "int g; void main() { int *p = malloc(2); p[0] = 1; g = 2; out(g); }"
  in
  let opt = Vliw_opt.Dce.run prog in
  let count kind_pred p =
    let n = ref 0 in
    Prog.iter_ops (fun op -> if kind_pred op then incr n) p;
    !n
  in
  Alcotest.(check int) "stores kept" (count Op.is_store prog)
    (count Op.is_store opt);
  Alcotest.(check int) "allocs kept" (count Op.is_alloc prog)
    (count Op.is_alloc opt)

let prop_opt_pipeline_preserves =
  Helpers.qcheck ~count:60
    "promote + simplify + dce + if-convert preserve semantics"
    (fun seed ->
      let src = Gen_minic.gen_program_with_seed seed in
      let prog = Minic.compile src in
      let opt =
        Vliw_opt.Dce.run
          (Vliw_opt.Ifconvert.run
             (Vliw_opt.Dce.run
                (Vliw_opt.Simplify.run (Vliw_opt.Promote.run prog))))
      in
      Vliw_ir.Validate.check opt;
      let a = Vliw_interp.Interp.run prog ~input:Gen_minic.input in
      let b = Vliw_interp.Interp.run opt ~input:Gen_minic.input in
      Helpers.equal_outputs a.outputs b.outputs)
    Gen_minic.arbitrary_program

(* ------------------------------------------------------------------ *)
(* Pinned front-end output                                             *)

(* What everything downstream is keyed by: the printed IR, each block's
   op ids, each function's [reg_count] and the program's [op_count]. *)
let ir_fingerprint prog =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Fmt.str "%a" Prog.pp prog);
  List.iter
    (fun f ->
      Printf.bprintf b "\n%s reg_count %d" (Func.name f) (Func.reg_count f);
      List.iter
        (fun blk ->
          Buffer.add_char b '\n';
          List.iter (fun op -> Printf.bprintf b "%d " (Op.id op)) (Block.ops blk))
        (Func.blocks f))
    (Prog.funcs prog);
  Printf.bprintf b "\nop_count %d" (Prog.op_count prog);
  Buffer.contents b

let dfg_fingerprint prog =
  Vliw_analysis.Prog_dfg.fold_edges
    (fun acc a b w -> (a, b, w) :: acc)
    [] (Vliw_analysis.Prog_dfg.compute prog)
  |> List.sort compare
  |> List.map (fun (a, b, w) -> Printf.sprintf "%d>%d:%d" a b w)
  |> String.concat " "

(* Every definition's [uses_of_def] list, in the order the analysis
   returns it: parameters first, then ops in layout order. *)
let uses_fingerprint prog =
  let module R = Vliw_analysis.Reaching in
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      let reach = R.compute (Vliw_analysis.Cfg.of_func f) in
      let def d =
        Printf.bprintf b "\n%d:" d;
        List.iter
          (fun (u, r) -> Printf.bprintf b " %d/%d" u (Reg.to_int r))
          (R.uses_of_def reach ~def_id:d)
      in
      List.iter (fun p -> def (R.param_def p)) (Func.params f);
      Func.iter_ops (fun op -> if Op.defs op <> [] then def (Op.id op)) f)
    (Prog.funcs prog);
  Buffer.contents b

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

(* Recorded from the optimizer, [Prog_dfg] and [Reaching] as they were
   before their linear-time rewrites: (benchmark, IR, DFG edges,
   uses_of_def) digests of [Pipeline.prepare_default]'s program. *)
let pinned_suite =
  [
    ("rawcaudio", "2fd2092776b13d75", "01576631319f3379", "3d77cdea07e95bb1");
    ("rawdaudio", "bea0d83d88b0afa3", "b0bf2a6827a28f3e", "32f89fb5adf4553e");
    ("g721enc", "fea83c469589dd28", "27b1bfd9d89bac1e", "9227bbab02a3f162");
    ("g721dec", "1948d697b41da896", "c95068738b1d9f29", "da40198f2f55aeb0");
    ("cjpeg", "a44297b70bd886ec", "9f91f940d2abef83", "8630892df9b4a475");
    ("djpeg", "d8b1502dd9332dde", "f5854223b9a90b09", "7ddb8df546d6a036");
    ("mpeg2enc", "709f3a1926c20fa4", "338e6e7e5307c463", "45b617cfc3ac6229");
    ("mpeg2dec", "9faa7f8fdf8f2cd3", "e6193cdbb38d74e4", "2a59a5081c6447e2");
    ("epic", "c29a939d24d98e91", "129054ada7669608", "c84a1e5b347bde60");
    ("unepic", "d3dbeb80a73fb766", "602df3f5a69fe490", "8a311af4eb073783");
    ("gsmenc", "ac973df4f4d5f187", "e35671faa878db4a", "801de7b53b1773e3");
    ("gsmdec", "6a8926166e31eb2d", "1ffa8c72c0f1b7fc", "e3871b766d3b85dd");
    ("pegwit", "3b99ba590019f41d", "63bd43d6e9269c23", "3b571f32323ae2ca");
    ("fir", "5c11d3331c4b64a6", "b6920589c549f223", "c198e7d64ed171a6");
    ("fsed", "58c499af49f044fa", "1fa68d3b86c5cd22", "26424e43b2c29089");
    ("sobel", "2a06971714c30212", "3867662a36ea3de0", "65a92383cde2e170");
    ("viterbi", "9c7c761e729518c5", "6602eaea67a0c7e7", "1eedea3d2c17e4ae");
    ("iirflt", "935c9b3e43c516ef", "cf0657b956e1782b", "951d690b6575b888");
  ]

(* The same three digests over 200 generated programs (seeds 0-199,
   each through [Pipeline.prepare]), and the digest of their sources. *)
let pinned_generated =
  ("b56e7ddd4774d217", "ad9bda72a729e1e7", "d9c59b788d65eed0", "9e9dcd6414782a98")

let facets prog =
  ( digest (ir_fingerprint prog),
    digest (dfg_fingerprint prog),
    digest (uses_fingerprint prog) )

let test_pinned_suite () =
  Alcotest.(check (list (pair string (triple string string string))))
    "IR, DFG edges, uses_of_def"
    (List.map (fun (n, i, d, u) -> (n, (i, d, u))) pinned_suite)
    (List.map
       (fun (bench : Benchsuite.Bench_intf.t) ->
         ( bench.name,
           facets (Gdp_core.Pipeline.prepare_default bench).Gdp_core.Pipeline.prog ))
       Benchsuite.Suite.all)

(* The generator draws from the stdlib [Random], whose stream differs
   between compiler releases (4.14 and 5.x use different generators).
   Under another stream the programs are not the recorded ones, and the
   test reports itself skipped. *)
let test_pinned_generated () =
  let sources = List.init 200 Gen_minic.gen_program_with_seed in
  let ps, pi, pd, pu = pinned_generated in
  if digest (String.concat "" (List.map digest sources)) <> ps then
    Alcotest.skip ();
  let irs = Buffer.create 4096 and dfgs = Buffer.create 4096 in
  let uses = Buffer.create 4096 in
  List.iter
    (fun source ->
      let bench =
        {
          Benchsuite.Bench_intf.name = "generated";
          description = "generated";
          source;
          input = Gen_minic.input;
          exhaustive_ok = false;
        }
      in
      let i, d, u = facets (Gdp_core.Pipeline.prepare bench).Gdp_core.Pipeline.prog in
      Buffer.add_string irs i;
      Buffer.add_string dfgs d;
      Buffer.add_string uses u)
    sources;
  let total b = digest (Buffer.contents b) in
  Alcotest.(check (triple string string string))
    "IR, DFG edges, uses_of_def" (pi, pd, pu)
    (total irs, total dfgs, total uses)

let suite =
  [
    Alcotest.test_case "if-conversion flattens diamonds" `Quick
      test_ifconvert_flattens_diamonds;
    Alcotest.test_case "if-conversion preserves semantics" `Quick
      test_ifconvert_preserves_semantics;
    Alcotest.test_case "if-conversion keeps loops" `Quick
      test_ifconvert_keeps_loops;
    Alcotest.test_case "if-conversion skips calls" `Quick
      test_ifconvert_skips_calls;
    Alcotest.test_case "nested if-conversion" `Quick test_nested_if_conversion;
    Alcotest.test_case "straightening" `Quick test_straighten;
    Alcotest.test_case "scalar promotion" `Quick test_promote_scalars;
    Alcotest.test_case "promotion skips shared globals" `Quick
      test_promote_skips_shared_globals;
    Alcotest.test_case "promotion skips escaping addresses" `Quick
      test_promote_skips_escaping_address;
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "copy propagation" `Quick test_copy_propagation;
    Alcotest.test_case "dce removes dead code" `Quick test_dce_removes_dead_code;
    Alcotest.test_case "dce keeps effects" `Quick test_dce_keeps_stores_and_allocs;
    prop_opt_pipeline_preserves;
    Alcotest.test_case "pinned front-end output: suite" `Quick test_pinned_suite;
    Alcotest.test_case "pinned front-end output: generated" `Quick
      test_pinned_generated;
  ]
