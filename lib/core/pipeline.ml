(** The end-to-end GDP pipeline: MiniC source -> IR -> profile ->
    partitioning context -> method outcome -> cycle report.

    This is the library's main entry point; the experiment drivers and
    the examples are thin layers over it. *)

open Vliw_ir
module Methods = Partition.Methods

type prepared = {
  bench : Benchsuite.Bench_intf.t;
  prog : Prog.t;
  reference : Vliw_interp.Interp.result;
}

(** The optimizer sequence: scalar promotion, simplification + DCE,
    if-conversion, DCE again; one span per pass under [optimize]. *)
let optimize ?(promote = true) ?(if_convert = true) (prog : Prog.t) : Prog.t =
  Telemetry.with_span "optimize" (fun () ->
      let pass name run prog = Telemetry.with_span name (fun () -> run prog) in
      let prog = if promote then pass "promote" Vliw_opt.Promote.run prog else prog in
      let prog =
        pass "dce" Vliw_opt.Dce.run (pass "simplify" Vliw_opt.Simplify.run prog)
      in
      let prog =
        if if_convert then pass "ifconvert" Vliw_opt.Ifconvert.run prog
        else prog
      in
      pass "dce" Vliw_opt.Dce.run prog)

(** Compile a benchmark (unrolling, then {!optimize}), form predicated
    hyperblocks (Trimaran-style if-conversion), and collect the
    reference run and profile. *)
let prepare (bench : Benchsuite.Bench_intf.t) : prepared =
  Telemetry.with_span "prepare"
    ~args:[ ("bench", bench.Benchsuite.Bench_intf.name) ]
    (fun () ->
      let prog =
        Telemetry.with_span "parse" (fun () ->
            Minic.compile bench.Benchsuite.Bench_intf.source)
      in
      let prog = optimize prog in
      Telemetry.incr "ir.ops" ~by:(Vliw_ir.Prog.op_count prog);
      let reference =
        Telemetry.with_span "profile" (fun () ->
            Vliw_interp.Interp.run prog
              ~input:bench.Benchsuite.Bench_intf.input)
      in
      { bench; prog; reference })

(* [prepare] is a pure function of the benchmark, and the experiment
   drivers sweep the same benchmark set once per move latency — without
   memoization every sweep recompiles, re-optimizes and re-profiles
   every benchmark.  Plain [Hashtbl] memo
   behind [cache_lock]: compiles happen outside the lock (a racing pair
   of workers may both compile, last write wins — the entries are
   equal), table accesses inside it.  The memo is bounded: long
   fuzzing runs stream thousands of distinct programs through the
   pipeline, and an unbounded memo would hold every compiled program
   alive.  On overflow the whole table is dropped (the suite has ~19
   benchmarks, far below the cap, so sweeps never evict). *)
let prepare_cache : (string, prepared) Hashtbl.t = Hashtbl.create 16
let prepare_cache_limit = 64

(* The prepare memo's lock: [Par] pool workers may warm the memo while
   another domain reads it or [clear_caches] resets it. *)
let cache_lock = Par.Lock.create ()

let prepare_default (bench : Benchsuite.Bench_intf.t) : prepared =
  let name = bench.Benchsuite.Bench_intf.name in
  match
    Par.Lock.with_lock cache_lock (fun () ->
        Hashtbl.find_opt prepare_cache name)
  with
  | Some p -> p
  | None ->
      let p = prepare bench in
      Par.Lock.with_lock cache_lock (fun () ->
          if Hashtbl.length prepare_cache >= prepare_cache_limit then
            Hashtbl.reset prepare_cache;
          Hashtbl.replace prepare_cache name p);
      p

let clear_caches () =
  Par.Lock.with_lock cache_lock (fun () -> Hashtbl.reset prepare_cache)

let context ?machine ?merge_low_slack (p : prepared) : Methods.context =
  let machine =
    match machine with Some m -> m | None -> Vliw_machine.paper_machine ()
  in
  Telemetry.with_span "context" (fun () ->
      Methods.make_context ?merge_low_slack ~machine ~prog:p.prog
        ~profile:p.reference.Vliw_interp.Interp.profile ())

type evaluation = {
  outcome : Methods.outcome;
  report : Vliw_sched.Perf.report;
}

(* Run one method and price it under the cycle model: the one body of
   the [Plain] and [Checked] modes.  With [check] the clustered
   assignment is also structurally validated (every op clustered,
   memory ops on their objects' home clusters, register webs on one
   cluster, every op but a move on a cluster with a unit of its kind),
   raising [Assignment.Invalid] on a violation. *)
let run_method ~check ~par_domains ?par_workers (ctx : Methods.context)
    method_ : evaluation =
  Telemetry.with_span "evaluate" ~args:[ ("method", Methods.to_string method_) ]
    (fun () ->
      (* the pool lives exactly as long as the partitioning work: it is
         torn down before control returns to callers that may fork
         ([Exec] pools), because worker domains do not survive [fork] *)
      let outcome =
        Par.with_pool ?workers:par_workers ~domains:par_domains (fun pool ->
            Methods.run ~pool method_ ctx)
      in
      let c = outcome.Methods.clustered in
      if check then begin
        Vliw_sched.Assignment.validate c.Vliw_sched.Move_insert.cassign
          c.Vliw_sched.Move_insert.cprog ~objects_of:(Methods.objects_of ctx);
        Vliw_sched.Assignment.check_units ~machine:ctx.Methods.machine
          c.Vliw_sched.Move_insert.cassign c.Vliw_sched.Move_insert.cprog
      end;
      { outcome; report = Methods.evaluate ctx outcome })

(** Functional correctness: the clustered program must produce the
    reference outputs both under plain interpretation and under
    cycle-level simulation (which also checks resource legality).
    Returns an error message instead of raising so tests can assert. *)
let verify_body (p : prepared) (ctx : Methods.context) (e : evaluation) :
    (unit, string) result =
  let expected = p.reference.Vliw_interp.Interp.outputs in
  let input = p.bench.Benchsuite.Bench_intf.input in
  let check_outputs what got =
    if
      List.length got = List.length expected
      && List.for_all2 Vliw_interp.Interp.equal_value got expected
    then Ok ()
    else Error (Fmt.str "%s outputs differ from the reference run" what)
  in
  match
    Telemetry.with_span "interpret-clustered" (fun () ->
        Vliw_interp.Interp.run
          e.outcome.Methods.clustered.Vliw_sched.Move_insert.cprog ~input)
  with
  | exception Vliw_interp.Interp.Runtime_error m ->
      Error ("clustered interpretation failed: " ^ m)
  | re -> (
      match check_outputs "clustered interpretation" re.Vliw_interp.Interp.outputs with
      | Error _ as err -> err
      | Ok () -> (
          match
            Vliw_sched.Vliw_sim.run e.outcome.Methods.clustered
              ~machine:ctx.Methods.machine
              ~objects_of:(Methods.objects_of ctx) ~input ()
          with
          | exception Vliw_sched.Vliw_sim.Sim_error m ->
              Error ("cycle simulation failed: " ^ m)
          | sim -> (
              match check_outputs "cycle simulation" sim.Vliw_sched.Vliw_sim.outputs with
              | Error _ as err -> err
              | Ok () ->
                  if sim.Vliw_sched.Vliw_sim.cycles <> e.report.Vliw_sched.Perf.total_cycles
                  then
                    Error
                      (Fmt.str
                         "simulated cycles (%d) disagree with the static \
                          model (%d)"
                         sim.Vliw_sched.Vliw_sim.cycles
                         e.report.Vliw_sched.Perf.total_cycles)
                  else if
                    sim.Vliw_sched.Vliw_sim.dynamic_moves
                    <> e.report.Vliw_sched.Perf.dynamic_moves
                  then
                    Error
                      (Fmt.str
                         "simulated moves (%d) disagree with the static \
                          model (%d)"
                         sim.Vliw_sched.Vliw_sim.dynamic_moves
                         e.report.Vliw_sched.Perf.dynamic_moves)
                  else Ok ())))

let verify p ctx e = Telemetry.with_span "verify" (fun () -> verify_body p ctx e)

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                                *)

(* [run_method], with the pipeline's internal invariants promoted from
   exceptions to a checked result: any stage failure (partitioner
   constraint violations, invalid move insertion, assignment-invariant
   breaks, scheduler/simulator errors) comes back as [Error].  With
   [?verify_against] the full differential check (clustered
   interpretation + cycle simulation vs. the reference run) is
   included. *)
let checked ~par_domains ?par_workers ?verify_against (ctx : Methods.context)
    method_ : (evaluation, string) result =
  match run_method ~check:true ~par_domains ?par_workers ctx method_ with
  | e -> (
      match verify_against with
      | None -> Ok e
      | Some p -> Result.map (fun () -> e) (verify p ctx e))
  | exception Vliw_sched.Assignment.Invalid m ->
      Error ("assignment invariant violated: " ^ m)
  | exception Vliw_ir.Validate.Invalid m -> Error ("invalid IR: " ^ m)
  | exception Vliw_sched.Vliw_sim.Sim_error m ->
      Error ("cycle simulation failed: " ^ m)
  | exception Vliw_interp.Interp.Runtime_error m ->
      Error ("interpretation failed: " ^ m)
  | exception Invalid_argument m -> Error m
  | exception Failure m -> Error m

type fallback = {
  failed_method : string;
  reason : string;  (** why verification or an invariant rejected it *)
}

type robust = {
  requested : Methods.t;
  used : Methods.t;  (** the first method in the chain that passed *)
  evaluation : evaluation;
  fallbacks : fallback list;  (** failed attempts before [used], in order *)
}

let pp_fallback ppf f =
  Fmt.pf ppf "%s failed: %s" f.failed_method f.reason

(* Evaluate [method_] with full verification against the reference
   run, degrading along [Methods.fallback_chain] (GDP -> Profile Max
   -> Naive -> Unified) when a method's partition or schedule fails an
   invariant or the differential check.  Every failure is recorded in
   the result (and counted as a detected fault); a successful fallback
   counts as a recovery.  [Error] only when every method in the chain
   fails. *)
let robust ~par_domains ?par_workers ~verify (p : prepared)
    (ctx : Methods.context) method_ : (robust, string) result =
  Telemetry.with_span "evaluate-robust"
    ~args:[ ("method", Methods.to_string method_) ]
  @@ fun () ->
  let verify_against = if verify then Some p else None in
  let rec go fallbacks = function
    | [] ->
        Error
          (Fmt.str "all methods failed: %a"
             Fmt.(list ~sep:(any "; ") pp_fallback)
             (List.rev fallbacks))
    | m :: rest -> (
        match checked ~par_domains ?par_workers ?verify_against ctx m with
        | Ok e ->
            if fallbacks <> [] then begin
              Fault.note_recovered ();
              Telemetry.incr "pipeline.fallbacks" ~by:(List.length fallbacks);
              Logs.warn (fun l ->
                  l "pipeline: %s degraded to %s after %d failure(s)"
                    (Methods.to_string method_) (Methods.to_string m)
                    (List.length fallbacks))
            end;
            Ok
              {
                requested = method_;
                used = m;
                evaluation = e;
                fallbacks = List.rev fallbacks;
              }
        | Error reason ->
            Fault.note_detected ();
            Logs.warn (fun l ->
                l "pipeline: method %s rejected: %s" (Methods.to_string m) reason);
            go ({ failed_method = Methods.to_string m; reason } :: fallbacks) rest)
  in
  go [] (Methods.fallback_chain method_)

(* ------------------------------------------------------------------ *)
(* Settings: what a compile varies, serializable so jobs can cross a
   process boundary.                                                   *)

module Settings = struct
  type t = {
    machine : Machine_spec.t;
    method_ : Methods.t;
    par_domains : int;
        (** intra-compile parallelism: domains used by the partitioning
            passes (default 1).  Artifacts do not depend on it.  See
            [docs/parallelism.md]. *)
  }

  let schema = "gdp-settings/1"

  (* Bumped when the settings record changes shape.  [of_json] reads
     exactly this version and names any other, so a mismatched client
     and server fail with a clear message instead of misinterpreting
     each other. *)
  let version = 4

  let default method_ =
    {
      machine = Machine_spec.of_legacy ~clusters:2 ~move_latency:5;
      method_;
      par_domains = 1;
    }

  let machine (s : t) = Machine_spec.resolve s.machine

  let to_json (s : t) : Minijson.t =
    Minijson.obj
      [
        ("schema", Minijson.str schema);
        ("version", Minijson.int version);
        ("machine", Machine_spec.to_json s.machine);
        ("method", Minijson.str (Methods.to_string s.method_));
        ("par_domains", Minijson.int s.par_domains);
      ]

  let ( let* ) = Result.bind

  let field name doc =
    match Minijson.member name doc with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "settings: missing field %S" name)

  let as_int name v =
    match Minijson.to_int v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "settings: field %S is not an integer" name)

  (* Strict field checking: a key we do not know is rejected by name
     instead of silently ignored — a typo'd option must fail loudly,
     especially now that settings documents arrive over the [gdpcd]
     wire.  Fields added in future versions belong behind a version
     bump, which is rejected above with its own message. *)
  let known_fields = [ "schema"; "version"; "machine"; "method"; "par_domains" ]

  let reject_unknown doc =
    match doc with
    | Minijson.Obj fields -> (
        let unknown (k, _) = not (List.mem k known_fields) in
        match List.find_opt unknown fields with
        | None -> Ok ()
        | Some (k, _) ->
            Error
              (Printf.sprintf "settings: unknown field %S (known fields: %s)" k
                 (String.concat ", " known_fields)))
    | _ -> Error "settings: expected an object"

  let of_json (doc : Minijson.t) : (t, string) result =
    let* schema_v = field "schema" doc in
    let* () =
      match Minijson.to_string schema_v with
      | Some s when s = schema -> Ok ()
      | Some s -> Error (Printf.sprintf "settings: unknown schema %S" s)
      | None -> Error "settings: schema is not a string"
    in
    let* v =
      match Minijson.member "version" doc with
      | None ->
          Error
            (Printf.sprintf
               "settings: missing \"version\" (a version-1 document; this \
                build reads version %d only)"
               version)
      | Some v -> as_int "version" v
    in
    let* () =
      if v = version then Ok ()
      else if v > version then
        Error
          (Printf.sprintf
             "settings: version %d is newer than this build supports (%d) — \
              upgrade the server"
             v version)
      else if v >= 1 then
        Error
          (Printf.sprintf
             "settings: version %d is no longer supported (this build reads \
              version %d only)"
             v version)
      else Error (Printf.sprintf "settings: invalid version %d" v)
    in
    let* () = reject_unknown doc in
    (* the machine: a preset name or a gdp-machine/1 spec object *)
    let* machine =
      match Minijson.member "machine" doc with
      | None -> Error "settings: missing field \"machine\""
      | Some (Minijson.Str name) ->
          Result.map_error
            (fun e -> "settings: " ^ e)
            (Machine_spec.preset name)
      | Some (Minijson.Obj _ as spec) ->
          Result.map_error (fun e -> "settings: " ^ e)
            (Machine_spec.of_json spec)
      | Some _ ->
          Error "settings: \"machine\" must be a preset name or a spec object"
    in
    let* method_v = field "method" doc in
    let* method_ =
      match Minijson.to_string method_v with
      | Some s -> Methods.of_string s
      | None -> Error "settings: method is not a string"
    in
    let* par_domains =
      Result.bind (field "par_domains" doc) (as_int "par_domains")
    in
    if par_domains < 1 then
      Error
        (Printf.sprintf "settings: par_domains must be >= 1 (got %d)"
           par_domains)
    else Ok { machine; method_; par_domains }
end

(* ------------------------------------------------------------------ *)
(* The entry point.                                                    *)

type mode = Plain | Checked of { verify : bool } | Robust of { verify : bool }
type run_result = Evaluated of evaluation | Degraded of robust

let run ?prepared:p ?ctx ?(mode = Plain) ?par_workers (s : Settings.t) :
    (run_result, string) result =
  let { Settings.method_; par_domains; _ } = s in
  let ctx =
    match (ctx, p) with
    | Some c, _ -> Ok c
    | None, Some p -> Ok (context ~machine:(Settings.machine s) p)
    | None, None -> Error "Pipeline.run: needs ~prepared or ~ctx"
  in
  match (ctx, mode, p) with
  | (Error _ as e), _, _ -> e
  | Ok ctx, Plain, _ ->
      Ok
        (Evaluated
           (run_method ~check:false ~par_domains ?par_workers ctx method_))
  | Ok _, Checked { verify = true }, None ->
      Error "Pipeline.run: Checked verification needs ~prepared"
  | Ok ctx, Checked { verify }, _ ->
      let verify_against = if verify then p else None in
      Result.map
        (fun e -> Evaluated e)
        (checked ~par_domains ?par_workers ?verify_against ctx method_)
  | Ok _, Robust _, None -> Error "Pipeline.run: Robust mode needs ~prepared"
  | Ok ctx, Robust { verify }, Some p ->
      Result.map
        (fun r -> Degraded r)
        (robust ~par_domains ?par_workers ~verify p ctx method_)
