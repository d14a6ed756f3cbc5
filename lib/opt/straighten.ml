(** Control-flow straightening: merge a block ending in an unconditional
    jump with its target when the target has no other predecessors.
    Grows the hyperblocks formed by [Ifconvert] and cleans up the join
    blocks the MiniC lowering creates.

    One forward pass reaches the fixpoint of "merge the first mergeable
    block in layout order, repeat": merging [a] with its target moves
    the target's out-edges to [a], so no block's predecessor count
    changes, and only [a] grows.  No block before [a] can become
    mergeable, and [a] itself is retried with its new terminator. *)

open Vliw_ir

let merge_func ?(max_ops = max_int) (f : Func.t) : Func.t =
  let blocks = Array.of_list (Func.blocks f) in
  let n = Array.length blocks in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i b -> Hashtbl.replace index (Block.label b) i) blocks;
  let preds = Func.in_degrees f in
  let entry = Block.label blocks.(0) in
  let removed = Array.make n false in
  let rec grow i =
    let a = blocks.(i) in
    match Op.kind (Block.term a) with
    | Op.Jmp target
      when (not (Label.equal target (Block.label a)))
           && (not (Label.equal target entry))
           && Hashtbl.find_opt preds target = Some 1 ->
        let j = Hashtbl.find index target in
        let b = blocks.(j) in
        if Block.num_ops a + Block.num_ops b - 1 <= max_ops then begin
          blocks.(i) <-
            Block.v ~label:(Block.label a)
              ~body:(Block.body a @ Block.body b)
              ~term:(Block.term b);
          removed.(j) <- true;
          grow i
        end
    | _ -> ()
  in
  for i = 0 to n - 1 do
    if not removed.(i) then grow i
  done;
  Func.with_blocks f
    (List.filteri (fun i _ -> not removed.(i)) (Array.to_list blocks))

let run ?max_ops (prog : Prog.t) : Prog.t =
  Prog.v
    ~globals:(Prog.globals prog)
    ~funcs:(List.map (merge_func ?max_ops) (Prog.funcs prog))
    ~op_count:(Prog.op_count prog)
