(** Classic backward liveness over registers, on dense bit vectors: one
    bit per register of the function, one vector per block.

    Used by RHOP and by the clustered program's schedule
    ([Vliw_sched.Schedule]): a block's schedule is long enough to commit
    every value a later block reads.  Tests also check that lowering
    never reads a register with no reaching definition. *)

open Vliw_ir

type t = {
  live_in : int array array;  (** per block index of the cfg *)
  live_out : int array array;
}

let compute (cfg : Cfg.t) : t =
  let n = Cfg.num_blocks cfg in
  let nregs = Func.reg_count cfg.Cfg.func in
  let vectors () = Array.init n (fun _ -> Bits.create nregs) in
  (* use: registers read before any write in the block; def: registers
     the block writes *)
  let use = vectors () and def = vectors () in
  for i = 0 to n - 1 do
    let u = use.(i) and d = def.(i) in
    let read r = if not (Bits.mem d r) then Bits.add u r in
    List.iter
      (fun op ->
        List.iter read (Op.uses op);
        (* a guarded definition may not execute: it does not kill, and
           the incoming value may flow through, so it counts as a use *)
        if Op.is_guarded op then List.iter read (Op.defs op)
        else List.iter (Bits.add d) (Op.defs op))
      (Block.ops (Cfg.block cfg i))
  done;
  let live_in = vectors () and live_out = vectors () in
  let words = (nregs + Bits.w - 1) / Bits.w in
  (* postorder (reverse of rpo) for fast convergence; a pass in which no
     in vector changes computed every out vector from final values *)
  let rpo = Cfg.reverse_postorder cfg in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = Array.length rpo - 1 downto 0 do
      let i = rpo.(k) in
      let succs = Cfg.successors cfg i in
      let out = live_out.(i) and inn = live_in.(i) in
      let u = use.(i) and d = def.(i) in
      for w = 0 to words - 1 do
        let o = List.fold_left (fun acc s -> acc lor live_in.(s).(w)) 0 succs in
        out.(w) <- o;
        let x = u.(w) lor (o land lnot d.(w)) in
        if x <> inn.(w) then begin
          inn.(w) <- x;
          changed := true
        end
      done
    done
  done;
  { live_in; live_out }

let to_set v = Reg.Set.of_list (Bits.to_list v)
let live_in t i = to_set t.live_in.(i)
let live_out t i = to_set t.live_out.(i)
