(** Regression gates (see regress.mli). *)

module Attrib = Vliw_sched.Attrib

type row = {
  rg_bench : string;
  rg_method : string;
  rg_cycles : int;
  rg_moves : int;
  rg_categories : (string * int) list;
}

type baseline = { b_latency : int; b_rows : row list }

let schema = "gdp-attrib/1"

let of_json ?(where = "attribution document") (doc : Minijson.t) :
    (baseline, string) result =
  let path = where in
  let open Minijson in
  match Option.bind (member "schema" doc) to_string with
  | Some s when s = schema -> (
      match
        ( Option.bind (member "latency" doc) to_int,
          Option.bind (member "rows" doc) to_list )
      with
      | Some lat, Some rows -> (
              let parse_row r =
                let str k = Option.bind (member k r) to_string in
                let int k = Option.bind (member k r) to_int in
                match (str "bench", str "method", int "cycles", int "dynamic_moves") with
                | Some bench, Some method_, Some cycles, Some moves ->
                    let categories =
                      match member "categories" r with
                      | Some (Obj fields) ->
                          List.filter_map
                            (fun (k, v) ->
                              Option.map (fun n -> (k, n)) (to_int v))
                            fields
                      | _ -> []
                    in
                    Some
                      {
                        rg_bench = bench;
                        rg_method = method_;
                        rg_cycles = cycles;
                        rg_moves = moves;
                        rg_categories = categories;
                      }
                | _ -> None
              in
              match
                List.fold_left
                  (fun acc r ->
                    match (acc, parse_row r) with
                    | Some acc, Some row -> Some (row :: acc)
                    | _ -> None)
                  (Some []) rows
              with
              | Some parsed -> Ok { b_latency = lat; b_rows = List.rev parsed }
              | None -> Error (Fmt.str "%s: malformed row" path))
      | _ -> Error (Fmt.str "%s: missing latency or rows" path))
  | Some s -> Error (Fmt.str "%s: unsupported schema %S" path s)
  | None -> Error (Fmt.str "%s: not a %s document" path schema)

let load path : (baseline, string) result =
  match Minijson.parse_file path with
  | Error m -> Error (Fmt.str "%s: %s" path m)
  | Ok doc -> of_json ~where:path doc

let rows_of (es : Explain.t list) : row list =
  List.concat_map
    (fun (e : Explain.t) ->
      List.map
        (fun (r : Explain.method_row) ->
          {
            rg_bench = e.Explain.ex_bench;
            rg_method = r.Explain.mr_method;
            rg_cycles = r.Explain.mr_cycles;
            rg_moves = r.Explain.mr_dynamic_moves;
            rg_categories =
              List.map
                (fun c ->
                  ( Attrib.category_name c,
                    r.Explain.mr_totals.Attrib.t_categories.(Attrib
                                                            .category_index c)
                  ))
                Attrib.categories;
          })
        e.Explain.ex_rows)
    es

type issue = {
  i_bench : string;
  i_method : string;
  i_metric : string;
  i_baseline : int;
  i_current : int;
}

let pp_issue ppf i =
  if i.i_current < 0 then
    Fmt.pf ppf "%s/%s: row disappeared from the run (baseline %s = %d)"
      i.i_bench i.i_method i.i_metric i.i_baseline
  else
    Fmt.pf ppf "%s/%s: %s regressed %d -> %d (%+.1f%%)" i.i_bench i.i_method
      i.i_metric i.i_baseline i.i_current
      (if i.i_baseline = 0 then Float.infinity
       else
         100.
         *. (float i.i_current -. float i.i_baseline)
         /. float i.i_baseline)

(* categories whose growth is a quality regression; Useful/Empty shift
   with any code change and are informational only *)
let gated_categories =
  List.map Attrib.category_name
    [ Attrib.Mem_serialize; Attrib.Transfer_wait; Attrib.Issue_stall ]

let check ~tolerance ~baseline ~current : issue list =
  let limit base =
    (* relative tolerance with one unit of absolute slack: a 3-cycle
       baseline must not fail on a 4th cycle at 10% *)
    max (base + 1) (int_of_float (ceil (float base *. (1. +. (tolerance /. 100.)))))
  in
  let issues = ref [] in
  let push i = issues := i :: !issues in
  List.iter
    (fun b ->
      match
        List.find_opt
          (fun c -> c.rg_bench = b.rg_bench && c.rg_method = b.rg_method)
          current
      with
      | None ->
          push
            {
              i_bench = b.rg_bench;
              i_method = b.rg_method;
              i_metric = "cycles";
              i_baseline = b.rg_cycles;
              i_current = -1;
            }
      | Some c ->
          let gate metric base cur =
            if cur > limit base then
              push
                {
                  i_bench = b.rg_bench;
                  i_method = b.rg_method;
                  i_metric = metric;
                  i_baseline = base;
                  i_current = cur;
                }
          in
          gate "cycles" b.rg_cycles c.rg_cycles;
          gate "dynamic_moves" b.rg_moves c.rg_moves;
          List.iter
            (fun cat ->
              match
                ( List.assoc_opt cat b.rg_categories,
                  List.assoc_opt cat c.rg_categories )
              with
              | Some base, Some cur -> gate cat base cur
              | _ -> ())
            gated_categories)
    baseline.b_rows;
  List.rev !issues


(* ------------------------------------------------------------------ *)
(* Speed gate                                                          *)

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
