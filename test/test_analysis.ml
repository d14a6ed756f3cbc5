(** Analysis tests: CFG, dominators, loops, liveness, reaching
    definitions, points-to, program-level DFG. *)

open Vliw_ir
module An = Vliw_analysis

let diamond_src =
  {|
int g;
void main() {
  int x = in(0);
  if (x > 0) { g = 1; } else { g = 2; }
  out(g + x);
}
|}

let loop_src =
  {|
void main() {
  int s = 0;
  for (int i = 0; i < 3; i = i + 1) {
    for (int j = 0; j < 2; j = j + 1) { s = s + j; }
  }
  out(s);
}
|}

let cfg_of src =
  let prog = Helpers.compile ~unroll:false src in
  (prog, An.Cfg.of_func (Prog.main prog))

let test_cfg_structure () =
  let _, cfg = cfg_of diamond_src in
  Alcotest.(check int) "blocks" 4 (An.Cfg.num_blocks cfg);
  Alcotest.(check int) "entry succs" 2 (List.length (An.Cfg.successors cfg 0));
  Alcotest.(check int) "entry preds" 0 (List.length (An.Cfg.predecessors cfg 0));
  (* rpo covers all reachable blocks exactly once *)
  let rpo = An.Cfg.reverse_postorder cfg in
  Alcotest.(check int) "rpo size" 4 (Array.length rpo);
  let sorted = Array.copy rpo in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "rpo is a permutation" [| 0; 1; 2; 3 |] sorted

let test_dominators () =
  let _, cfg = cfg_of diamond_src in
  let idom = An.Cfg.dominators cfg in
  Alcotest.(check int) "entry self-dominated" 0 idom.(0);
  (* both branch sides and the join are dominated by the entry *)
  for i = 1 to 3 do
    Alcotest.(check bool) "entry dominates"
      true
      (An.Cfg.dominates idom 0 i)
  done;
  (* branch sides do not dominate the join *)
  let join =
    (* the join is the block whose successors are empty or that has two preds *)
    let found = ref (-1) in
    for i = 0 to 3 do
      if List.length (An.Cfg.predecessors cfg i) = 2 then found := i
    done;
    !found
  in
  Alcotest.(check bool) "join exists" true (join >= 0);
  List.iter
    (fun side ->
      Alcotest.(check bool) "side does not dominate join" false
        (An.Cfg.dominates idom side join))
    (An.Cfg.successors cfg 0)

let test_loop_depths () =
  let _, cfg = cfg_of loop_src in
  let depth = An.Cfg.loop_depths cfg in
  let max_depth = Array.fold_left max 0 depth in
  Alcotest.(check int) "nested loops" 2 max_depth;
  Alcotest.(check int) "entry not in a loop" 0 depth.(0)

let test_liveness () =
  let prog, cfg = cfg_of diamond_src in
  ignore prog;
  let live = An.Liveness.compute cfg in
  (* x is defined in the entry and used in the join: live out of entry *)
  let entry_live_out = An.Liveness.live_out live 0 in
  Alcotest.(check bool) "something live across the branch" true
    (not (Reg.Set.is_empty entry_live_out))

let test_reaching_defs () =
  let prog, cfg = cfg_of diamond_src in
  ignore prog;
  let reach = An.Reaching.compute cfg in
  (* find the op using g's loaded value in the join; its load has one
     reaching def, while g's memory has two stores -- here we check the
     register-level chain: the "out" op's used regs each have >= 1 def *)
  let f = An.Cfg.block cfg 0 in
  ignore f;
  let ok = ref true in
  An.Cfg.iter_rpo
    (fun _ b ->
      List.iter
        (fun op ->
          List.iter
            (fun r ->
              let defs =
                An.Reaching.defs_of_use reach ~op_id:(Op.id op) ~reg:r
              in
              if An.Reaching.Int_set.is_empty defs then ok := false)
            (Op.uses op))
        (Block.ops b))
    cfg;
  Alcotest.(check bool) "every use has a reaching def" true !ok

let test_reaching_guarded_defs_accumulate () =
  (* after if-conversion, a guarded def must not kill the incoming def;
     use a register (local) diamond so the defs are register writes *)
  let local_diamond =
    {|
void main() {
  int x = in(0);
  int y = 0;
  if (x > 0) { y = 1; } else { y = 2; }
  out(y + x);
}
|}
  in
  let prog = Helpers.compile ~unroll:false local_diamond in
  let prog = Vliw_opt.Ifconvert.run prog in
  let f = Prog.main prog in
  let cfg = An.Cfg.of_func f in
  let reach = An.Reaching.compute cfg in
  (* find a use whose register has two or more reaching defs (the guarded
     g = 1 / g = 2 copies) *)
  let multi = ref 0 in
  Func.iter_ops
    (fun op ->
      List.iter
        (fun r ->
          let defs = An.Reaching.defs_of_use reach ~op_id:(Op.id op) ~reg:r in
          if An.Reaching.Int_set.cardinal defs >= 2 then incr multi)
        (Op.uses op))
    f;
  Alcotest.(check bool) "guarded defs accumulate" true (!multi > 0)

(* Reaching definitions by brute force: from a use, search backwards over
   blocks reachable from the entry, stopping each path at an unguarded
   definition of the register.  [oracle_defs cfg i k r] is the set of
   definitions of [r] reaching op [k] of block [i]. *)
let oracle_defs cfg =
  let module R = An.Reaching in
  let n = An.Cfg.num_blocks cfg in
  let reachable = Array.make n false in
  Array.iter (fun i -> reachable.(i) <- true) (An.Cfg.reverse_postorder cfg);
  let ops = Array.init n (fun i -> Array.of_list (Block.ops (An.Cfg.block cfg i))) in
  let params = Func.params cfg.An.Cfg.func in
  fun i k r ->
    let found = ref R.Int_set.empty in
    let visited = Array.make n false in
    (* true when an unguarded definition ends the path inside block [b] *)
    let rec scan b j =
      j >= 0
      &&
      let op = ops.(b).(j) in
      if List.mem r (Op.defs op) then begin
        found := R.Int_set.add (Op.id op) !found;
        (not (Op.is_guarded op)) || scan b (j - 1)
      end
      else scan b (j - 1)
    in
    let rec enter b =
      if reachable.(b) then begin
        if b = 0 && List.mem r params then
          found := R.Int_set.add (R.param_def r) !found;
        List.iter
          (fun p ->
            if reachable.(p) && not visited.(p) then begin
              visited.(p) <- true;
              if not (scan p (Array.length ops.(p) - 1)) then enter p
            end)
          (An.Cfg.predecessors cfg b)
      end
    in
    if not (scan i (k - 1)) then enter i;
    !found

(* [defs_of_use] sets and [uses_of_def] multisets agree with the
   oracle on every function. *)
let reaching_matches_oracle (f : Func.t) =
  let module R = An.Reaching in
  let cfg = An.Cfg.of_func f in
  let reach = R.compute cfg in
  let oracle = oracle_defs cfg in
  let expected_uses = Hashtbl.create 64 in
  let ok = ref true in
  for i = 0 to An.Cfg.num_blocks cfg - 1 do
    List.iteri
      (fun k op ->
        List.iter
          (fun r ->
            let want = oracle i k r in
            if not (R.Int_set.equal want (R.defs_of_use reach ~op_id:(Op.id op) ~reg:r))
            then ok := false;
            R.Int_set.iter (fun d -> Hashtbl.add expected_uses d (Op.id op, r)) want)
          (Op.uses op))
      (Block.ops (An.Cfg.block cfg i))
  done;
  let defs =
    List.map R.param_def (Func.params f)
    @ Func.fold_ops (fun acc op -> if Op.defs op = [] then acc else Op.id op :: acc) [] f
  in
  !ok
  && List.for_all
       (fun d ->
         List.sort compare (Hashtbl.find_all expected_uses d)
         = List.sort compare (R.uses_of_def reach ~def_id:d))
       defs

let prop_reaching_oracle =
  Helpers.qcheck ~count:60
    "reaching definitions match a brute-force search"
    (fun seed ->
      let prog = Minic.compile (Gen_minic.gen_program_with_seed seed) in
      List.for_all
        (fun p -> List.for_all reaching_matches_oracle (Prog.funcs p))
        [ prog; Vliw_opt.Ifconvert.run prog ])
    Gen_minic.arbitrary_program

(* Liveness oracle: [r] is live out of a reachable block iff a path
   through its successors reads [r] before an unguarded write of it (a
   guarded write may not execute, so it reads the incoming value). *)
let liveness_matches_oracle (f : Func.t) =
  let cfg = An.Cfg.of_func f in
  let live = An.Liveness.compute cfg in
  let n = An.Cfg.num_blocks cfg and nregs = Func.reg_count f in
  (* what each block does to each register first *)
  let through = 0 and read = 1 and kill = 2 in
  let touch =
    Array.init n (fun b ->
        let t = Array.make nregs through in
        let mark k r = if t.(r) = through then t.(r) <- k in
        List.iter
          (fun op ->
            List.iter (mark read) (Op.uses op);
            List.iter
              (mark (if Op.is_guarded op then read else kill))
              (Op.defs op))
          (Block.ops (An.Cfg.block cfg b));
        t)
  in
  let live_out i r =
    let seen = Array.make n false in
    let rec reads_first b =
      (not seen.(b))
      && begin
           seen.(b) <- true;
           touch.(b).(r) = read
           || touch.(b).(r) = through
              && List.exists reads_first (An.Cfg.successors cfg b)
         end
    in
    List.exists reads_first (An.Cfg.successors cfg i)
  in
  let regs = List.init nregs Fun.id in
  Array.for_all
    (fun i ->
      let out = List.filter (live_out i) regs in
      let inn =
        List.filter
          (fun r ->
            touch.(i).(r) = read || (touch.(i).(r) = through && List.mem r out))
          regs
      in
      Reg.Set.elements (An.Liveness.live_out live i) = out
      && Reg.Set.elements (An.Liveness.live_in live i) = inn)
    (An.Cfg.reverse_postorder cfg)

let prop_liveness_oracle =
  Helpers.qcheck ~count:60 "liveness matches a brute-force search"
    (fun seed ->
      let prog = Minic.compile (Gen_minic.gen_program_with_seed seed) in
      List.for_all
        (fun p -> List.for_all liveness_matches_oracle (Prog.funcs p))
        [ prog; Vliw_opt.Ifconvert.run prog ])
    Gen_minic.arbitrary_program

let test_points_to_basic () =
  let src =
    {|
int table[4] = {1, 2, 3, 4};
int other[4];
void main() {
  int *p = table;
  int x = in(0);
  if (x > 0) { p = other; }
  out(p[1]);
  out(other[0]);
}
|}
  in
  let prog = Helpers.compile ~unroll:false src in
  let pt = An.Points_to.compute prog in
  (* the p[1] load may access both arrays; the other[0] load only one *)
  let sizes = ref [] in
  Prog.iter_ops
    (fun op ->
      if Op.is_load op then
        sizes :=
          Data.Obj_set.cardinal (An.Points_to.objects_of pt (Op.id op))
          :: !sizes)
    prog;
  let sizes = List.sort compare !sizes in
  Alcotest.(check (list int)) "ambiguity" [ 1; 2 ] sizes

let test_points_to_interprocedural () =
  let src =
    {|
int a[4];
int b[4];
int get(int *p, int i) { return p[i]; }
void main() {
  out(get(a, 0) + get(b, 1));
}
|}
  in
  let prog = Helpers.compile ~unroll:false src in
  let pt = An.Points_to.compute prog in
  (* the load inside get sees both a and b *)
  let get_load = ref None in
  Func.iter_ops
    (fun op -> if Op.is_load op then get_load := Some (Op.id op))
    (Prog.find_func prog "get");
  match !get_load with
  | None -> Alcotest.fail "no load in get"
  | Some id ->
      let objs = An.Points_to.objects_of pt id in
      Alcotest.(check int) "sees both arrays" 2 (Data.Obj_set.cardinal objs)

let test_points_to_heap () =
  let src =
    {|
void main() {
  int *p = malloc(4);
  int *q = malloc(4);
  p[0] = 1;
  q[0] = 2;
  out(p[0] + q[0]);
}
|}
  in
  let prog = Helpers.compile ~unroll:false src in
  let pt = An.Points_to.compute prog in
  (* every memory op is unambiguous: exactly one heap object *)
  Prog.iter_ops
    (fun op ->
      if Op.is_mem op then
        Alcotest.(check int) "singleton" 1
          (Data.Obj_set.cardinal (An.Points_to.objects_of pt (Op.id op))))
    prog

(** Points-to soundness: every dynamically accessed object is in the
    static set of its operation. *)
let prop_points_to_sound =
  Helpers.qcheck ~count:50 "points-to is sound on executions"
    (fun seed ->
      let prog = Minic.compile (Gen_minic.gen_program_with_seed seed) in
      let pt = An.Points_to.compute prog in
      let res = Vliw_interp.Interp.run prog ~input:Gen_minic.input in
      let sound = ref true in
      Prog.iter_ops
        (fun op ->
          if Op.is_mem op then
            List.iter
              (fun (obj, _count) ->
                if
                  not
                    (Data.Obj_set.mem obj
                       (An.Points_to.objects_of pt (Op.id op)))
                then sound := false)
              (Vliw_interp.Profile.accesses_of
                 res.Vliw_interp.Interp.profile ~op_id:(Op.id op)))
        prog;
      !sound)
    Gen_minic.arbitrary_program

let prop_no_uninitialized_reads =
  Helpers.qcheck ~count:50
    "no register is live into main's entry (no use-before-def)"
    (fun seed ->
      let prog = Minic.compile (Gen_minic.gen_program_with_seed seed) in
      List.for_all
        (fun f ->
          let cfg = An.Cfg.of_func f in
          let live = An.Liveness.compute cfg in
          let entry_in = An.Liveness.live_in live 0 in
          (* parameters are legitimately live-in *)
          Reg.Set.subset entry_in (Reg.Set.of_list (Func.params f)))
        (Prog.funcs prog))
    Gen_minic.arbitrary_program

let test_prog_dfg () =
  let prog = Helpers.compile ~unroll:false diamond_src in
  let dfg = An.Prog_dfg.compute prog in
  Alcotest.(check bool) "has edges" true (An.Prog_dfg.num_edges dfg > 0);
  (* all endpoints are valid op ids *)
  let max_id = Prog.op_count prog in
  An.Prog_dfg.iter_edges
    (fun a b w ->
      Alcotest.(check bool) "endpoints in range" true
        (a >= 0 && a < max_id && b >= 0 && b < max_id && w > 0 && a <> b))
    dfg

let test_prog_dfg_interprocedural () =
  let src =
    "int f(int x) { return x * 2; } void main() { out(f(in(0))); }"
  in
  let prog = Helpers.compile ~unroll:false src in
  let dfg = An.Prog_dfg.compute prog in
  (* there must be edges between ops of different functions *)
  let index = Prog.op_index prog in
  let cross = ref 0 in
  An.Prog_dfg.iter_edges
    (fun a b _ ->
      let _, fa, _ = Hashtbl.find index a in
      let _, fb, _ = Hashtbl.find index b in
      if not (String.equal (Func.name fa) (Func.name fb)) then incr cross)
    dfg;
  Alcotest.(check bool) "cross-function edges" true (!cross >= 2)

let suite =
  [
    Alcotest.test_case "cfg structure" `Quick test_cfg_structure;
    Alcotest.test_case "dominators" `Quick test_dominators;
    Alcotest.test_case "loop depths" `Quick test_loop_depths;
    Alcotest.test_case "liveness" `Quick test_liveness;
    Alcotest.test_case "reaching definitions" `Quick test_reaching_defs;
    Alcotest.test_case "guarded defs accumulate" `Quick
      test_reaching_guarded_defs_accumulate;
    prop_reaching_oracle;
    prop_liveness_oracle;
    Alcotest.test_case "points-to ambiguity" `Quick test_points_to_basic;
    Alcotest.test_case "points-to interprocedural" `Quick
      test_points_to_interprocedural;
    Alcotest.test_case "points-to heap sites" `Quick test_points_to_heap;
    prop_points_to_sound;
    prop_no_uninitialized_reads;
    Alcotest.test_case "program dfg" `Quick test_prog_dfg;
    Alcotest.test_case "program dfg crosses functions" `Quick
      test_prog_dfg_interprocedural;
  ]
