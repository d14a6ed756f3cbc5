(** The speed gate (see regress.mli). *)

type perf_run = {
  pr_workload : string;
  pr_traced : bool;
  pr_seed : int;
  pr_correct : bool;
  pr_failed : int;
  pr_metrics : (string * float) list;
}

let runs_of_string ?(where = "perfbench output") text :
    (perf_run list, string) result =
  let open Minijson in
  let header line =
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | [ "workload:"; w; "seed:"; seed; "trace:"; t ] ->
        Option.map (fun seed -> (w, seed, t = "1")) (int_of_string_opt seed)
    | _ -> None
  in
  let result (w, seed, traced) line =
    match parse line with
    | Error m -> Error m
    | Ok doc -> (
        match
          (member "correct" doc, Option.bind (member "failed" doc) to_int,
           member "metrics" doc)
        with
        | Some (Bool correct), Some failed, Some (Obj metrics) ->
            let value (name, m) =
              Option.map
                (fun v -> (name, v))
                (Option.bind (member "value" m) to_float)
            in
            Ok
              {
                pr_workload = w;
                pr_traced = traced;
                pr_seed = seed;
                pr_correct = correct;
                pr_failed = failed;
                pr_metrics = List.filter_map value metrics;
              }
        | _ -> Error "a result line without correct, failed and metrics")
  in
  let rec go runs run = function
    | [] -> Ok (List.rev runs)
    | line :: rest -> (
        match (header line, run) with
        | Some h, _ -> go runs (Some h) rest
        | None, Some ((w, _, _) as h) when String.starts_with ~prefix:"{" line
          -> (
            match result h line with
            | Ok r -> go (r :: runs) None rest
            | Error m -> Error (Fmt.str "%s: %s: %s" where w m))
        | None, _ -> go runs run rest)
  in
  go [] None (String.split_on_char '\n' text)

let load_runs path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> runs_of_string ~where:path text

type speed_issue = {
  s_workload : string;
  s_traced : bool;
  s_metric : string;
  s_detail : string;
}

let pp_speed_issue ppf i =
  Fmt.pf ppf "%s%s %s: %s" i.s_workload
    (if i.s_traced then " (traced)" else "")
    i.s_metric i.s_detail

type rule = Exact | Relative of float | Within_factor of float

(* The gated metrics.  Counts follow from the code and the seed alone,
   so any change in one is a change in what was compiled or served.  A
   geometric mean goes through [exp] and [log], whose last bits may
   differ between C libraries.  Calibration does not remove a shared
   host's speed swings: on a 2-core container, back-to-back traced runs
   of unchanged code read 1.4x apart after scaling, three 3 s runs put
   mesh16-gdp's compile_ms_p99 at 182-257 ms, and five runs of the CI
   command read 0.77x to 1.36x of a recorded baseline.  So a timing
   fails only beyond a factor of 2, in the worse direction. *)
let rules =
  [
    ("dynamic_moves_total", Exact);
    ("vliw_opt.ops_out", Exact);
    ("vliw_analysis.dfg_edges", Exact);
    ("partition.gdp_edgecut", Exact);
    ("partition.rhop_calls", Exact);
    ("vliw_sched.static_moves", Exact);
    ("vliw_sched.total_cycles", Exact);
    ("cycles_geomean", Relative 1e-9);
    ("compiles_per_s", Within_factor 2.);
    ("compile_ms_p50", Within_factor 2.);
    ("compile_ms_p99", Within_factor 2.);
    ("partition.gdp_ms", Within_factor 2.);
    ("partition.rhop_ms", Within_factor 2.);
  ]

(* The [better] field of [name]'s entry in BENCHMARK.json. *)
let better ~benchmark name =
  let open Minijson in
  List.find_map
    (fun section ->
      Option.bind (Option.bind (member section benchmark) to_list)
        (List.find_map (fun e ->
             if Option.bind (member "name" e) to_string = Some name then
               Option.bind (member "better" e) to_string
             else None)))
    [ "end_to_end"; "per_layer" ]

let check_speed ~benchmark ~baseline current : speed_issue list =
  List.concat_map
    (fun b ->
      let issue s_metric fmt =
        Fmt.kstr
          (fun s_detail ->
            {
              s_workload = b.pr_workload;
              s_traced = b.pr_traced;
              s_metric;
              s_detail;
            })
          fmt
      in
      match
        List.find_opt
          (fun c -> c.pr_workload = b.pr_workload && c.pr_traced = b.pr_traced)
          current
      with
      | None -> [ issue "run" "no result line" ]
      | Some c ->
          let gate (name, base) =
            match
              (List.assoc_opt name rules, List.assoc_opt name c.pr_metrics)
            with
            | None, _ -> None
            | Some _, None -> Some (issue name "missing from the run")
            | Some Exact, Some cur ->
                if cur = base then None
                else Some (issue name "%.17g, the baseline %.17g" cur base)
            | Some (Relative eps), Some cur ->
                if Float.abs (cur -. base) <= eps *. Float.abs base then None
                else Some (issue name "%.17g, the baseline %.17g" cur base)
            | Some (Within_factor k), Some cur -> (
                match better ~benchmark name with
                | Some "higher" when cur < base /. k ->
                    Some
                      (issue name "%.4g, below 1/%g of the baseline %.4g" cur
                         k base)
                | Some "lower" when cur > base *. k ->
                    Some
                      (issue name "%.4g, above %g times the baseline %.4g" cur
                         k base)
                | Some ("higher" | "lower") -> None
                | _ -> Some (issue name "no better field in BENCHMARK.json"))
          in
          (if c.pr_seed = b.pr_seed then []
           else [ issue "seed" "%d, the baseline %d" c.pr_seed b.pr_seed ])
          @ (if c.pr_correct && c.pr_failed = 0 then []
             else
               [
                 issue "correct" "%b, with %d failed operation(s)" c.pr_correct
                   c.pr_failed;
               ])
          @ List.filter_map gate b.pr_metrics)
    baseline
