(** Per-benchmark, per-method explanation reports (see explain.mli). *)

open Vliw_ir
module Methods = Partition.Methods
module Attrib = Vliw_sched.Attrib
module Occupancy = Vliw_sched.Occupancy

type method_row = {
  mr_method : string;
  mr_cycles : int;
  mr_dynamic_moves : int;
  mr_static_moves : int;
  mr_cut_edges : int option;
  mr_inserted_moves : int;
  mr_totals : Attrib.totals;
  mr_occupancy : Occupancy.t option;
  mr_obj_home : (Data.obj * int) list;
}

type t = {
  ex_bench : string;
  ex_machine : Vliw_machine.t;
  ex_latency : int;
  ex_clusters : int;
  ex_access_totals : (Data.obj * int) list;
  ex_rows : method_row list;
}

(* ------------------------------------------------------------------ *)
(* Building                                                            *)

let explain ~machine (p : Gdp_core.Pipeline.prepared) : t =
  Telemetry.with_span "explain"
    ~args:[ ("bench", p.Gdp_core.Pipeline.bench.Benchsuite.Bench_intf.name) ]
  @@ fun () ->
  let ctx = Gdp_core.Pipeline.context ~machine p in
  let objects_of = Methods.objects_of ctx in
  let profile =
    p.Gdp_core.Pipeline.reference.Vliw_interp.Interp.profile
  in
  let rows =
    List.map
      (fun m ->
        let outcome = Methods.run m ctx in
        let report = Methods.evaluate ctx outcome in
        let clustered = outcome.Methods.clustered in
        let totals =
          Attrib.of_clustered ~machine clustered ~profile ~objects_of ()
        in
        (match Attrib.check_identity totals with
        | Some msg -> failwith (Methods.to_string m ^ ": " ^ msg)
        | None -> ());
        let model_cycles = report.Vliw_sched.Perf.total_cycles in
        if totals.Attrib.t_cycles <> model_cycles then
          failwith
            (Fmt.str "%s: attribution covers %d cycles but the model reports %d"
               (Methods.to_string m) totals.Attrib.t_cycles model_cycles);
        {
          mr_method = Methods.to_string m;
          mr_cycles = model_cycles;
          mr_dynamic_moves = report.Vliw_sched.Perf.dynamic_moves;
          mr_static_moves = report.Vliw_sched.Perf.static_moves;
          mr_cut_edges = outcome.Methods.cut_edges;
          mr_inserted_moves =
            Hashtbl.length clustered.Vliw_sched.Move_insert.move_routes;
          mr_totals = totals;
          mr_occupancy =
            Occupancy.of_program ~machine ~profile
              (Vliw_sched.Move_insert.schedule ~machine ~objects_of clustered);
          mr_obj_home = outcome.Methods.obj_home;
        })
      Methods.all
  in
  {
    ex_bench = p.Gdp_core.Pipeline.bench.Benchsuite.Bench_intf.name;
    ex_machine = machine;
    ex_latency = Vliw_machine.move_latency machine;
    ex_clusters = Vliw_machine.num_clusters machine;
    ex_access_totals = Vliw_interp.Profile.object_access_totals profile;
    ex_rows = rows;
  }

let explain_bench ~move_latency (b : Benchsuite.Bench_intf.t) : t =
  explain
    ~machine:(Vliw_machine.paper_machine ~move_latency ())
    (Gdp_core.Pipeline.prepare_default b)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let expensive_placements ~machine (row : method_row) ~k =
  let lat = Vliw_machine.move_latency machine in
  let totals = row.mr_totals in
  let objs =
    List.sort_uniq Data.compare_obj
      (List.map fst totals.Attrib.t_obj_access
      @ List.map fst totals.Attrib.t_obj_moves)
  in
  List.map
    (fun o ->
      let access =
        Option.value
          ~default:{ Attrib.acc_local = 0; acc_remote = 0 }
          (List.assoc_opt o totals.Attrib.t_obj_access)
      in
      let moves =
        Option.value ~default:0 (List.assoc_opt o totals.Attrib.t_obj_moves)
      in
      let home =
        List.find_map
          (fun (o', c) -> if Data.equal_obj o o' then Some c else None)
          row.mr_obj_home
      in
      (o, home, access, moves, moves * lat))
    objs
  |> List.sort (fun (oa, _, aa, _, ta) (ob, _, ab, _, tb) ->
         match compare tb ta with
         | 0 -> (
             match compare ab.Attrib.acc_remote aa.Attrib.acc_remote with
             | 0 -> Data.compare_obj oa ob
             | c -> c)
         | c -> c)
  |> List.filteri (fun i _ -> i < k)

let pct ~total n =
  if total = 0 then 0. else 100. *. float n /. float total

let cat_cell totals c =
  let n = totals.Attrib.t_categories.(Attrib.category_index c) in
  Fmt.str "%d (%.1f%%)" n (pct ~total:totals.Attrib.t_cycles n)

let home_cell = function Some c -> string_of_int c | None -> "-"

let to_markdown ppf (e : t) =
  let machine = e.ex_machine in
  Fmt.pf ppf "# %s — cycle attribution (latency %d, %d clusters)@.@."
    e.ex_bench e.ex_latency e.ex_clusters;
  (* method comparison *)
  Fmt.pf ppf
    "| method | cycles | useful | issue stall | transfer wait | mem \
     serialize | empty | dyn moves | inserted | cut edges |@.";
  Fmt.pf ppf "|---|---|---|---|---|---|---|---|---|---|@.";
  List.iter
    (fun r ->
      Fmt.pf ppf "| %s | %d | %s | %s | %s | %s | %s | %d | %d | %s |@."
        r.mr_method r.mr_cycles
        (cat_cell r.mr_totals Attrib.Useful)
        (cat_cell r.mr_totals Attrib.Issue_stall)
        (cat_cell r.mr_totals Attrib.Transfer_wait)
        (cat_cell r.mr_totals Attrib.Mem_serialize)
        (cat_cell r.mr_totals Attrib.Empty)
        r.mr_dynamic_moves
        r.mr_inserted_moves
        (match r.mr_cut_edges with Some n -> string_of_int n | None -> "-"))
    e.ex_rows;
  (* per-object placement tables *)
  List.iter
    (fun r ->
      let placements = expensive_placements ~machine r ~k:10 in
      if placements <> [] then begin
        Fmt.pf ppf "@.## Most expensive placements — %s@.@." r.mr_method;
        Fmt.pf ppf
          "| object | home | local accesses | remote accesses | moves | \
           transfer cycles |@.";
        Fmt.pf ppf "|---|---|---|---|---|---|@.";
        List.iter
          (fun (o, home, access, moves, transfer) ->
            Fmt.pf ppf "| %s | %s | %d | %d | %d | %d |@."
              (Data.obj_to_string o) (home_cell home) access.Attrib.acc_local
              access.Attrib.acc_remote moves transfer)
          placements
      end)
    e.ex_rows;
  (* link utilization *)
  let any_links = List.exists (fun r -> r.mr_totals.Attrib.t_link_moves <> []) e.ex_rows in
  if any_links then begin
    Fmt.pf ppf "@.## Link utilization@.@.";
    Fmt.pf ppf "| method | link | moves | busy cycles | of total |@.";
    Fmt.pf ppf "|---|---|---|---|---|@.";
    List.iter
      (fun r ->
        List.iter
          (fun ((src, dst), n) ->
            let busy = n * e.ex_latency in
            Fmt.pf ppf "| %s | %d->%d | %d | %d | %.1f%% |@." r.mr_method src
              dst n busy
              (pct ~total:r.mr_cycles busy))
          r.mr_totals.Attrib.t_link_moves)
      e.ex_rows
  end;
  (* occupancy *)
  Fmt.pf ppf "@.## Function-unit occupancy@.@.";
  List.iter
    (fun r ->
      match r.mr_occupancy with
      | None -> ()
      | Some occ -> Fmt.pf ppf "%s:@.@.```@.%a@.```@.@." r.mr_method Occupancy.pp occ)
    e.ex_rows;
  (* ground truth *)
  if e.ex_access_totals <> [] then begin
    Fmt.pf ppf "## Profiled accesses per object@.@.";
    Fmt.pf ppf "| object | dynamic accesses |@.|---|---|@.";
    List.iter
      (fun (o, n) -> Fmt.pf ppf "| %s | %d |@." (Data.obj_to_string o) n)
      e.ex_access_totals
  end

let csv_quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let methods_csv_header =
  "bench,latency,method,cycles,dynamic_moves,static_moves,inserted_moves,cut_edges,"
  ^ String.concat "," (List.map Attrib.category_name Attrib.categories)

let methods_csv ppf (e : t) =
  List.iter
    (fun r ->
      Fmt.pf ppf "%s,%d,%s,%d,%d,%d,%d,%s,%s@." (csv_quote e.ex_bench)
        e.ex_latency (csv_quote r.mr_method) r.mr_cycles r.mr_dynamic_moves
        r.mr_static_moves r.mr_inserted_moves
        (match r.mr_cut_edges with Some n -> string_of_int n | None -> "")
        (String.concat ","
           (List.map
              (fun c ->
                string_of_int
                  r.mr_totals.Attrib.t_categories.(Attrib.category_index c))
              Attrib.categories)))
    e.ex_rows

let objects_csv_header =
  "bench,latency,method,object,home,local_accesses,remote_accesses,moves,transfer_cycles"

let objects_csv ppf (e : t) =
  let machine = e.ex_machine in
  List.iter
    (fun r ->
      List.iter
        (fun (o, home, access, moves, transfer) ->
          Fmt.pf ppf "%s,%d,%s,%s,%s,%d,%d,%d,%d@." (csv_quote e.ex_bench)
            e.ex_latency (csv_quote r.mr_method)
            (csv_quote (Data.obj_to_string o))
            (home_cell home) access.Attrib.acc_local access.Attrib.acc_remote
            moves transfer)
        (expensive_placements ~machine r ~k:max_int))
    e.ex_rows

(* ------------------------------------------------------------------ *)
(* JSON (the regression-gate baseline format)                          *)

let to_json (es : t list) : Minijson.t =
  let latency = match es with e :: _ -> e.ex_latency | [] -> 0 in
  let clusters = match es with e :: _ -> e.ex_clusters | [] -> 0 in
  let row e r =
    let categories =
      List.map
        (fun c ->
          ( Attrib.category_name c,
            Minijson.int
              r.mr_totals.Attrib.t_categories.(Attrib.category_index c) ))
        Attrib.categories
    in
    let objects =
      List.map
        (fun (o, home, access, moves, transfer) ->
          Minijson.obj
            [
              ("object", Minijson.str (Data.obj_to_string o));
              ("home", Minijson.option Minijson.int home);
              ("local", Minijson.int access.Attrib.acc_local);
              ("remote", Minijson.int access.Attrib.acc_remote);
              ("moves", Minijson.int moves);
              ("transfer_cycles", Minijson.int transfer);
            ])
        (expensive_placements ~machine:e.ex_machine r ~k:max_int)
    in
    Minijson.obj
      [
        ("bench", Minijson.str e.ex_bench);
        ("method", Minijson.str r.mr_method);
        ("cycles", Minijson.int r.mr_cycles);
        ("dynamic_moves", Minijson.int r.mr_dynamic_moves);
        ("categories", Minijson.obj categories);
        ("objects", Minijson.list objects);
      ]
  in
  Minijson.obj
    [
      ("schema", Minijson.str "gdp-attrib/1");
      ("latency", Minijson.int latency);
      ("clusters", Minijson.int clusters);
      ( "rows",
        Minijson.list
          (List.concat_map (fun e -> List.map (row e) e.ex_rows) es) );
    ]

(* ------------------------------------------------------------------ *)
(* File output                                                         *)

let write_file path render =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  render ppf;
  Format.pp_print_flush ppf ();
  close_out oc;
  path

let write_reports ~dir (es : t list) : string list =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let md =
    List.map
      (fun e ->
        write_file
          (Filename.concat dir (Fmt.str "%s-l%d.md" e.ex_bench e.ex_latency))
          (fun ppf -> to_markdown ppf e))
      es
  in
  let csv =
    write_file (Filename.concat dir "attribution.csv") (fun ppf ->
        Fmt.pf ppf "%s@." methods_csv_header;
        List.iter (methods_csv ppf) es)
  in
  let objs =
    write_file (Filename.concat dir "objects.csv") (fun ppf ->
        Fmt.pf ppf "%s@." objects_csv_header;
        List.iter (objects_csv ppf) es)
  in
  let json = Filename.concat dir "attribution.json" in
  Minijson.write_rows json (to_json es);
  md @ [ csv; objs; json ]
