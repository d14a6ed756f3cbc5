(** Reaching definitions and def-use chains.

    A definition is identified by the id of the defining operation.
    Function parameters are treated as definitions by the pseudo-id
    [param_def] (negative), so every use has at least one reaching
    definition in a well-formed program.

    The dataflow runs on dense bit vectors: definitions are numbered
    [0 .. n-1], parameters first and then defining ops in layout order,
    and each block gets gen/kill vectors.  A guarded (predicated)
    definition may not execute, so it generates without killing. *)

open Vliw_ir

module Int_set = Set.Make (Int)

(** Pseudo def id for parameter [r] (distinct from all op ids, which are
    non-negative). *)
let param_def (r : Reg.t) = -1 - Reg.to_int r

let is_param_def id = id < 0

type t = {
  def_use : (int, (int * Reg.t) list) Hashtbl.t;
      (** def id -> uses (op id, reg) it reaches *)
  use_def : (int * Reg.t, Int_set.t) Hashtbl.t;
      (** (use op id, reg) -> reaching def ids *)
}

let compute (cfg : Cfg.t) : t =
  let n = Cfg.num_blocks cfg in
  let params = Func.params cfg.Cfg.func in
  let single_def op = match Op.defs op with [ r ] -> Some r | _ -> None in
  (* number the definitions, parameters first and then ops in layout
     order; [defs_of.(r)] lists r's numbers ascending *)
  let nregs =
    Func.fold_ops
      (fun m op -> match single_def op with Some r -> max m (r + 1) | None -> m)
      (List.fold_left (fun m p -> max m (p + 1)) 0 params)
      cfg.Cfg.func
  in
  let ids = ref [] and count = ref 0 in
  let defs_of = Array.make nregs [] in
  let number r id =
    ids := id :: !ids;
    defs_of.(r) <- !count :: defs_of.(r);
    incr count
  in
  List.iter (fun p -> number p (param_def p)) params;
  Func.iter_ops
    (fun op -> Option.iter (fun r -> number r (Op.id op)) (single_def op))
    cfg.Cfg.func;
  let ndefs = !count in
  let id_of = Array.of_list (List.rev !ids) in
  let defs_of = Array.map List.rev defs_of in
  (* [step v k op] moves [v] past [op], whose definition (if any) is
     number [k]; returns the next number.  Walking blocks 0..n-1 in
     order from [List.length params] meets the numbers in sequence. *)
  let step v k op =
    match single_def op with
    | None -> k
    | Some r ->
        if not (Op.is_guarded op) then List.iter (Bits.remove v) defs_of.(r);
        Bits.add v k;
        k + 1
  in
  (* gen/kill per block; the gen vector is the block's effect on an
     empty one *)
  let gen = Array.init n (fun _ -> Bits.create ndefs) in
  let kill = Array.init n (fun _ -> Bits.create ndefs) in
  let k = ref (List.length params) in
  for i = 0 to n - 1 do
    let ops = Block.ops (Cfg.block cfg i) in
    k := List.fold_left (step gen.(i)) !k ops;
    List.iter
      (fun op ->
        match single_def op with
        | Some r when not (Op.is_guarded op) ->
            List.iter (Bits.add kill.(i)) defs_of.(r)
        | _ -> ())
      ops
  done;
  let entry = Bits.create ndefs in
  List.iteri (fun k _ -> Bits.add entry k) params;
  (* forward dataflow in reverse postorder until no out vector changes;
     unreachable blocks are never visited, so their vectors stay empty
     and contribute nothing *)
  let words = Array.length entry in
  let reach_in = Array.init n (fun _ -> Bits.create ndefs) in
  let out = Array.init n (fun _ -> Bits.create ndefs) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun i ->
        let inn = reach_in.(i) in
        if i = 0 then Array.blit entry 0 inn 0 words
        else Array.fill inn 0 words 0;
        List.iter
          (fun p ->
            let po = out.(p) in
            for w = 0 to words - 1 do
              inn.(w) <- inn.(w) lor po.(w)
            done)
          (Cfg.predecessors cfg i);
        let o = out.(i) and g = gen.(i) and kl = kill.(i) in
        for w = 0 to words - 1 do
          let v = g.(w) lor (inn.(w) land lnot kl.(w)) in
          if v <> o.(w) then begin
            o.(w) <- v;
            changed := true
          end
        done)
      (Cfg.reverse_postorder cfg)
  done;
  (* def-use chains: walk blocks 0..n-1, ops in order, uses in order,
     moving each block's in vector past its ops *)
  let def_use = Hashtbl.create 64 in
  let use_def = Hashtbl.create 64 in
  let add_def_use d u =
    Hashtbl.replace def_use d
      (u :: Option.value ~default:[] (Hashtbl.find_opt def_use d))
  in
  let k = ref (List.length params) in
  for i = 0 to n - 1 do
    let v = reach_in.(i) in
    k :=
      List.fold_left
        (fun k op ->
          List.iter
            (fun r ->
              let defs =
                if r >= nregs then Int_set.empty
                else
                  List.fold_left
                    (fun s d -> if Bits.mem v d then Int_set.add id_of.(d) s else s)
                    Int_set.empty defs_of.(r)
              in
              Hashtbl.replace use_def (Op.id op, r) defs;
              Int_set.iter (fun d -> add_def_use d (Op.id op, r)) defs)
            (Op.uses op);
          step v k op)
        !k
        (Block.ops (Cfg.block cfg i))
  done;
  { def_use; use_def }

(** Reaching definitions of register [r] at use site [op_id]. *)
let defs_of_use t ~op_id ~reg =
  Option.value ~default:Int_set.empty (Hashtbl.find_opt t.use_def (op_id, reg))

(** Uses reached by definition [def_id]. *)
let uses_of_def t ~def_id =
  Option.value ~default:[] (Hashtbl.find_opt t.def_use def_id)
