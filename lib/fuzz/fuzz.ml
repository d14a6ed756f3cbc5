(** Differential fuzzing harness for the GDP pipeline.

    Generates random MiniC programs ([Gen_minic]), runs every
    partitioning method at one or more intercluster latencies, and
    diffs the three execution substrates against each other: reference
    interpretation, clustered interpretation and cycle-level simulation
    must agree on outputs, and the simulator must agree with the static
    cycle model ([Pipeline.run] in [Checked {verify = true}] mode).  Any
    disagreement is a mismatch; the failing program is shrunk
    (line-based delta debugging) and persisted to a crash corpus
    directory for replay.

    Driven by [gdpc fuzz]; see [docs/robustness.md] for the workflow. *)

module Methods = Partition.Methods
module Pipeline = Gdp_core.Pipeline

type mismatch = {
  seed : int;  (** -1 for externally supplied sources *)
  latency : int;
  method_name : string;  (** ["frontend"] when compilation itself failed *)
  reason : string;
}

let pp_mismatch ppf m =
  Fmt.pf ppf "seed %d, latency %d, method %s: %s" m.seed m.latency
    m.method_name m.reason

let default_latencies = [ 5 ]

let bench_of_source ?(name = "fuzz") source =
  {
    Benchsuite.Bench_intf.name;
    description = "generated by the fuzzer";
    source;
    input = Gen_minic.input;
    exhaustive_ok = false;
  }

(** Differentially check one MiniC source across methods and latencies.
    The first disagreement wins; [Ok] means every method at every
    latency reproduced the reference run under both the clustered
    interpreter and the cycle-level simulator, with static/simulated
    cycle and move counts in agreement. *)
let check_source ?(seed = -1) ?(latencies = default_latencies) source :
    (unit, mismatch) result =
  Telemetry.incr "fuzz.programs";
  match Pipeline.prepare (bench_of_source source) with
  | exception (Minic.Compile_error _ as e) ->
      (* the generator only emits valid programs, so this is a finding *)
      Error
        {
          seed;
          latency = 0;
          method_name = "frontend";
          reason = Fmt.str "%a" Minic.pp_error e;
        }
  | exception exn ->
      Error
        {
          seed;
          latency = 0;
          method_name = "frontend";
          reason = Printexc.to_string exn;
        }
  | p ->
      let check_lat latency =
        let spec = Machine_spec.of_legacy ~clusters:2 ~move_latency:latency in
        let ctx = Pipeline.context ~machine:(Machine_spec.resolve spec) p in
        List.fold_left
          (fun acc m ->
            match acc with
            | Error _ -> acc
            | Ok () -> (
                match
                  Pipeline.run ~prepared:p ~ctx
                    ~mode:(Pipeline.Checked { verify = true })
                    { (Pipeline.Settings.default m) with machine = spec }
                with
                | Ok _ -> Ok ()
                | Error reason ->
                    Telemetry.incr "fuzz.mismatches";
                    Error
                      { seed; latency; method_name = Methods.to_string m; reason }))
          (Ok ()) Methods.all
      in
      List.fold_left
        (fun acc lat -> match acc with Error _ -> acc | Ok () -> check_lat lat)
        (Ok ()) latencies

(** Check the program generated by [seed]; on mismatch also returns the
    source. *)
let run_seed ?latencies seed : (unit, mismatch * string) result =
  let source = Gen_minic.gen_program_with_seed seed in
  match check_source ~seed ?latencies source with
  | Ok () -> Ok ()
  | Error m -> Error (m, source)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

(** Line-based greedy delta debugging: repeatedly drop single lines
    while [keep] still accepts the candidate (callers make [keep]
    require "compiles and still fails").  [budget] bounds the number of
    [keep] evaluations, since each one replays the whole pipeline. *)
let shrink ?(budget = 256) ~keep source =
  let budget = ref budget in
  let try_keep s =
    if !budget <= 0 then false
    else begin
      decr budget;
      keep s
    end
  in
  let rec go lines =
    let n = List.length lines in
    let rec attempt i =
      if i >= n || !budget <= 0 then None
      else
        let cand = List.filteri (fun j _ -> j <> i) lines in
        if try_keep (String.concat "\n" cand) then Some cand
        else attempt (i + 1)
    in
    match attempt 0 with Some cand -> go cand | None -> lines
  in
  String.concat "\n" (go (String.split_on_char '\n' source))

(** [keep] predicate for shrinking a mismatch: the candidate must still
    fail the differential check for a real (non-frontend) reason —
    otherwise the shrinker would happily reduce to a syntax error. *)
let still_fails ?latencies source =
  match check_source ?latencies source with
  | Ok () -> false
  | Error m -> not (String.equal m.method_name "frontend")

(* ------------------------------------------------------------------ *)
(* Crash corpus                                                        *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(** Persist a reproducer: the original source, its shrunk form (when
    shrinking succeeded) and a report with the mismatch detail.
    Returns the written paths. *)
let save_crash ~dir (m : mismatch) ~source ~shrunk : string list =
  mkdir_p dir;
  let stem = Filename.concat dir (Fmt.str "crash-seed%d" m.seed) in
  let orig = stem ^ ".c" in
  write_file orig source;
  let report = stem ^ ".txt" in
  write_file report
    (Fmt.str "%a@.input: %a@." pp_mismatch m
       Fmt.(array ~sep:comma int)
       Gen_minic.input);
  match shrunk with
  | Some s when String.length s < String.length source ->
      let min_path = stem ^ ".min.c" in
      write_file min_path s;
      [ orig; min_path; report ]
  | _ -> [ orig; report ]

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                     *)

type summary = {
  programs : int;
  mismatches : (mismatch * string list) list;
      (** mismatch, with the corpus paths written for it *)
}

let campaign_sequential ?(latencies = default_latencies) ?corpus
    ?(shrink_budget = 256) ?(on_progress = fun _ _ -> ()) ~seed ~count () :
    summary =
  let mismatches = ref [] in
  for s = seed to seed + count - 1 do
    Pipeline.clear_caches ();
    Gdp_core.Experiments.clear_cache ();
    (match run_seed ~latencies s with
    | Ok () -> ()
    | Error (m, source) ->
        Logs.err (fun l -> l "fuzz: %a" pp_mismatch m);
        let shrunk =
          if String.equal m.method_name "frontend" then None
          else Some (shrink ~budget:shrink_budget ~keep:(still_fails ~latencies) source)
        in
        let paths =
          match corpus with
          | Some dir -> save_crash ~dir m ~source ~shrunk
          | None -> []
        in
        mismatches := (m, paths) :: !mismatches);
    on_progress (s - seed + 1) (List.length !mismatches)
  done;
  Pipeline.clear_caches ();
  Gdp_core.Experiments.clear_cache ();
  { programs = count; mismatches = List.rev !mismatches }

(** Fuzz [count] seeds starting at [seed].  Every iteration clears the
    pipeline memos so memory stays flat over long runs; every mismatch
    is shrunk and saved under [corpus] (when given).  [on_progress] is
    called after each seed with (seeds done, mismatches so far).

    [jobs > 1] shards the seed range into contiguous chunks, one
    sequential campaign per [Exec] job.  Seeds are independent and
    corpus files seed-named, so shards never collide, and every seed
    yields at most one mismatch, so merging by seed gives exactly the
    sequential campaign's summary — except that [on_progress] then
    fires once per completed shard rather than per seed.  A crashed
    worker surfaces as a synthetic ["worker"] mismatch covering its
    shard, so a pool failure can never silently pass a campaign. *)
let campaign ?(jobs = 1) ?(latencies = default_latencies) ?corpus
    ?(shrink_budget = 256) ?(on_progress = fun _ _ -> ()) ~seed ~count () :
    summary =
  (* Not [Exec.map]'s inline path: a campaign run in-process reports
     progress after every seed, a shard only when it ends. *)
  if jobs <= 1 || count <= 1 then
    campaign_sequential ~latencies ?corpus ~shrink_budget ~on_progress ~seed
      ~count ()
  else begin
    let jobs = min jobs count in
    let base = count / jobs and extra = count mod jobs in
    let chunks =
      List.init jobs (fun i ->
          let start = seed + (i * base) + min i extra in
          let len = base + if i < extra then 1 else 0 in
          (start, len))
    in
    let results =
      Exec.map ~jobs
        ~worker:(fun (seed, count) ->
          campaign_sequential ~latencies ?corpus ~shrink_budget ~seed ~count ())
        (List.map
           (fun ((start, _) as chunk) ->
             Exec.job ~batch:(string_of_int start) chunk)
           chunks)
    in
    let merged = ref [] in
    let programs = ref 0 in
    let done_seeds = ref 0 in
    List.iteri
      (fun i (start, len) ->
        (match results.(i) with
        | Ok s ->
            programs := !programs + s.programs;
            merged := List.rev_append s.mismatches !merged
        | Error m ->
            (* the whole shard crashed — report it rather than claiming
               those seeds passed *)
            programs := !programs + len;
            merged :=
              ( {
                  seed = start;
                  latency = 0;
                  method_name = "worker";
                  reason =
                    Printf.sprintf "shard of %d seed(s) lost: %s" len m;
                },
                [] )
              :: !merged);
        done_seeds := !done_seeds + len;
        on_progress !done_seeds (List.length !merged))
      chunks;
    let mismatches =
      List.sort
        (fun ((a : mismatch), _) ((b : mismatch), _) -> compare a.seed b.seed)
        !merged
    in
    { programs = !programs; mismatches }
  end
