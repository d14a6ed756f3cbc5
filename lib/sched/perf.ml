(** Static performance model (the paper's methodology, Section 4.1).

    With 100%-hit partitioned memories, a program's cycle count is the
    sum over basic blocks of (schedule length x dynamic execution count),
    with the profile collected by the reference interpreter.  Dynamic
    intercluster traffic is the number of executed [Move] operations
    (Figure 10's metric): a block's moves are its schedule entries
    without a cluster.  The schedules are the clustered program's
    ([Move_insert.schedule]), which the simulator then executes. *)

open Vliw_ir

type report = { total_cycles : int; dynamic_moves : int; static_moves : int }

let evaluate ~(machine : Vliw_machine.t) (c : Move_insert.clustered)
    ~(profile : Vliw_interp.Profile.t) ?objects_of () : report =
  Telemetry.with_span "schedule" @@ fun () ->
  let total = ref 0 and dyn_moves = ref 0 and static_moves = ref 0 in
  let static_length = ref 0 in
  Schedule.iter
    (fun f b sched ->
      let len = List_sched.length sched in
      let count =
        Vliw_interp.Profile.block_count profile ~func:(Func.name f)
          ~label:(Block.label b)
      in
      let moves =
        Array.fold_left
          (fun n (e : List_sched.entry) ->
            if e.List_sched.cluster = None then n + 1 else n)
          0 (List_sched.entries sched)
      in
      total := !total + (len * count);
      dyn_moves := !dyn_moves + (moves * count);
      static_moves := !static_moves + moves;
      static_length := !static_length + len)
    (Move_insert.schedule ~machine ?objects_of c);
  Telemetry.incr "sched.total_cycles" ~by:!total;
  Telemetry.incr "sched.dynamic_moves" ~by:!dyn_moves;
  Telemetry.incr "sched.static_schedule_length" ~by:!static_length;
  {
    total_cycles = !total;
    dynamic_moves = !dyn_moves;
    static_moves = !static_moves;
  }

let pp ppf r =
  Fmt.pf ppf
    "@[<v>total cycles: %d@,dynamic intercluster moves: %d (static %d)@]"
    r.total_cycles r.dynamic_moves r.static_moves
