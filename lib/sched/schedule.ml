(** The schedule of a clustered program (see schedule.mli).  It depends
    on the machine and on the points-to oracle the scheduler orders
    memory operations with, so it remembers both. *)

open Vliw_ir
module Cfg = Vliw_analysis.Cfg
module Liveness = Vliw_analysis.Liveness

type func = {
  cfg : Cfg.t;
  liveness : Liveness.t;
  blocks : List_sched.t array;
}

type t = {
  machine : Vliw_machine.t;
  objects_of : int -> Data.Obj_set.t;
  funcs : (string * func) list;  (** in program order *)
}

let no_objects (_ : int) = Data.Obj_set.empty

let build ~machine ~objects_of ~assign ~move_routes (prog : Prog.t) : t =
  let func f =
    let cfg = Cfg.of_func f in
    let liveness = Liveness.compute cfg in
    let blocks =
      Array.mapi
        (fun i b ->
          List_sched.schedule_block ~machine ~assign ~move_routes ~objects_of
            ~live_out:(Liveness.live_out liveness i)
            b)
        cfg.Cfg.blocks
    in
    (Func.name f, { cfg; liveness; blocks })
  in
  { machine; objects_of; funcs = List.map func (Prog.funcs prog) }

let built_for t ~machine ~objects_of =
  t.machine == machine && t.objects_of == objects_of

let find_func t name = List.assoc name t.funcs

let iter fn t =
  List.iter
    (fun (_, fs) ->
      Array.iteri
        (fun i s -> fn fs.cfg.Cfg.func (Cfg.block fs.cfg i) s)
        fs.blocks)
    t.funcs
