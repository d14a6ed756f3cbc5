(** gdpcd application protocol (see protocol.mli). *)

module Pipeline = Gdp_core.Pipeline
module Settings = Gdp_core.Pipeline.Settings

let schema = "gdp-service/2"
let result_schema = "gdp-service-result/1"

type job = {
  id : string;
  source : string;
  input : int list;
  settings : Settings.t;
  deadline_ms : int option;
  verify : bool;
  trace_id : string option;
}

type metrics_format = Json | Prometheus

type request =
  | Submit of job
  | Cancel of { id : string }
  | Ping
  | Stats
  | Trace of { trace_id : string }
  | Metrics of metrics_format
  | Shutdown

type response =
  | Result of {
      id : string;
      cached : bool;
      result : Minijson.t;
      trace : Minijson.t option;
    }
  | Failed of {
      id : string;
      reason : string;
      retry_after_ms : int option;
      trace : Minijson.t option;
    }
  | Cancelled of { id : string }
  | Pong
  | Stats_reply of Minijson.t
  | Trace_reply of Minijson.t
  | Metrics_reply of Minijson.t
  | Metrics_text_reply of string
  | Shutting_down
  | Error_reply of string

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let job_to_json (j : job) =
  Minijson.obj
    ([
       ("id", Minijson.str j.id);
       ("source", Minijson.str j.source);
       ("input", Minijson.list (List.map Minijson.int j.input));
       ("settings", Settings.to_json j.settings);
     ]
    @ (match j.deadline_ms with
      | None -> []
      | Some d -> [ ("deadline_ms", Minijson.int d) ])
    @ (if j.verify then [ ("verify", Minijson.bool true) ] else [])
    @
    match j.trace_id with
    | None -> []
    | Some t -> [ ("trace_id", Minijson.str t) ])

let request_to_json = function
  | Submit j -> (
      match job_to_json j with
      | Minijson.Obj fields ->
          Minijson.Obj
            (("schema", Minijson.str schema)
            :: ("op", Minijson.str "submit")
            :: fields)
      | _ -> assert false)
  | Cancel { id } ->
      Minijson.obj
        [
          ("schema", Minijson.str schema);
          ("op", Minijson.str "cancel");
          ("id", Minijson.str id);
        ]
  | Ping ->
      Minijson.obj
        [ ("schema", Minijson.str schema); ("op", Minijson.str "ping") ]
  | Stats ->
      Minijson.obj
        [ ("schema", Minijson.str schema); ("op", Minijson.str "stats") ]
  | Trace { trace_id } ->
      Minijson.obj
        [
          ("schema", Minijson.str schema);
          ("op", Minijson.str "trace");
          ("trace_id", Minijson.str trace_id);
        ]
  | Metrics fmt ->
      Minijson.obj
        [
          ("schema", Minijson.str schema);
          ("op", Minijson.str "metrics");
          ( "format",
            Minijson.str
              (match fmt with Json -> "json" | Prometheus -> "prometheus") );
        ]
  | Shutdown ->
      Minijson.obj
        [ ("schema", Minijson.str schema); ("op", Minijson.str "shutdown") ]

let response_to_json r =
  let base op rest =
    Minijson.Obj
      (("schema", Minijson.str result_schema)
      :: ("op", Minijson.str op)
      :: rest)
  in
  let trace_field = function
    | None -> []
    | Some t -> [ ("trace", t) ]
  in
  match r with
  | Result { id; cached; result; trace } ->
      base "result"
        ([
           ("id", Minijson.str id);
           ("cached", Minijson.bool cached);
           ("result", result);
         ]
        @ trace_field trace)
  | Failed { id; reason; retry_after_ms; trace } ->
      base "failed"
        ([ ("id", Minijson.str id); ("reason", Minijson.str reason) ]
        @ (match retry_after_ms with
          | None -> []
          | Some ms -> [ ("retry_after_ms", Minijson.int ms) ])
        @ trace_field trace)
  | Cancelled { id } -> base "cancelled" [ ("id", Minijson.str id) ]
  | Pong -> base "pong" []
  | Stats_reply stats -> base "stats" [ ("stats", stats) ]
  | Trace_reply trace -> base "trace" [ ("trace", trace) ]
  | Metrics_reply metrics -> base "metrics" [ ("metrics", metrics) ]
  | Metrics_text_reply text ->
      base "metrics-text" [ ("text", Minijson.str text) ]
  | Shutting_down -> base "shutting-down" []
  | Error_reply reason -> base "error" [ ("reason", Minijson.str reason) ]

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

let field name conv doc =
  match Minijson.member name doc with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let string_field name doc = field name Minijson.to_string doc

let check_schema expected doc =
  match string_field "schema" doc with
  | Error _ -> Error (Printf.sprintf "missing schema (expected %S)" expected)
  | Ok s when s <> expected ->
      Error (Printf.sprintf "schema %S is not %S" s expected)
  | Ok _ -> Ok ()

let ( let* ) = Result.bind

let job_of_json doc =
  let* id = string_field "id" doc in
  let* source = string_field "source" doc in
  let* input =
    match Minijson.member "input" doc with
    | None -> Error "missing field \"input\""
    | Some v -> (
        match Minijson.to_list v with
        | None -> Error "field \"input\" has the wrong type (want int list)"
        | Some items ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | x :: rest -> (
                  match Minijson.to_int x with
                  | Some n -> go (n :: acc) rest
                  | None ->
                      Error "field \"input\" has the wrong type (want int list)")
            in
            go [] items)
  in
  let* settings =
    match Minijson.member "settings" doc with
    | None -> Error "missing field \"settings\""
    | Some s -> Settings.of_json s
  in
  let* deadline_ms =
    match Minijson.member "deadline_ms" doc with
    | None -> Ok None
    | Some v -> (
        match Minijson.to_int v with
        | Some d -> Ok (Some d)
        | None -> Error "field \"deadline_ms\" has the wrong type (want int)")
  in
  let* verify =
    match Minijson.member "verify" doc with
    | None -> Ok false
    | Some (Minijson.Bool b) -> Ok b
    | Some _ -> Error "field \"verify\" has the wrong type (want bool)"
  in
  let* trace_id =
    match Minijson.member "trace_id" doc with
    | None -> Ok None
    | Some (Minijson.Str t) -> Ok (Some t)
    | Some _ -> Error "field \"trace_id\" has the wrong type (want string)"
  in
  Ok { id; source; input; settings; deadline_ms; verify; trace_id }

let request_of_json doc =
  let* () = check_schema schema doc in
  let* op = string_field "op" doc in
  match op with
  | "submit" ->
      let* j = job_of_json doc in
      Ok (Submit j)
  | "cancel" ->
      let* id = string_field "id" doc in
      Ok (Cancel { id })
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "trace" ->
      let* trace_id = string_field "trace_id" doc in
      Ok (Trace { trace_id })
  | "metrics" -> (
      match Minijson.member "format" doc with
      | None -> Ok (Metrics Json)
      | Some (Minijson.Str "json") -> Ok (Metrics Json)
      | Some (Minijson.Str "prometheus") -> Ok (Metrics Prometheus)
      | Some _ ->
          Error "field \"format\" must be \"json\" or \"prometheus\"")
  | "shutdown" -> Ok Shutdown
  | other ->
      Error
        (Printf.sprintf
           "unknown op %S (known: submit, cancel, ping, stats, trace, \
            metrics, shutdown)"
           other)

let response_of_json doc =
  let* () = check_schema result_schema doc in
  let* op = string_field "op" doc in
  (* optional on both result and failed *)
  let trace = Minijson.member "trace" doc in
  match op with
  | "result" ->
      let* id = string_field "id" doc in
      let* cached =
        match Minijson.member "cached" doc with
        | Some (Minijson.Bool b) -> Ok b
        | _ -> Error "missing or ill-typed field \"cached\""
      in
      let* result =
        match Minijson.member "result" doc with
        | Some r -> Ok r
        | None -> Error "missing field \"result\""
      in
      Ok (Result { id; cached; result; trace })
  | "failed" ->
      let* id = string_field "id" doc in
      let* reason = string_field "reason" doc in
      let* retry_after_ms =
        match Minijson.member "retry_after_ms" doc with
        | None -> Ok None
        | Some v -> (
            match Minijson.to_int v with
            | Some ms -> Ok (Some ms)
            | None ->
                Error "field \"retry_after_ms\" has the wrong type (want int)")
      in
      Ok (Failed { id; reason; retry_after_ms; trace })
  | "cancelled" ->
      let* id = string_field "id" doc in
      Ok (Cancelled { id })
  | "pong" -> Ok Pong
  | "stats" -> (
      match Minijson.member "stats" doc with
      | Some s -> Ok (Stats_reply s)
      | None -> Error "missing field \"stats\"")
  | "trace" -> (
      match trace with
      | Some t -> Ok (Trace_reply t)
      | None -> Error "missing field \"trace\"")
  | "metrics" -> (
      match Minijson.member "metrics" doc with
      | Some m -> Ok (Metrics_reply m)
      | None -> Error "missing field \"metrics\"")
  | "metrics-text" ->
      let* text = string_field "text" doc in
      Ok (Metrics_text_reply text)
  | "shutting-down" -> Ok Shutting_down
  | "error" ->
      let* reason = string_field "reason" doc in
      Ok (Error_reply reason)
  | other -> Error (Printf.sprintf "unknown response op %S" other)

(* ------------------------------------------------------------------ *)
(* Content addressing                                                  *)

(* Bumped whenever the compiler starts producing different artifacts
   for the same job bytes, so a durable store written by an older build
   misses instead of serving a stale artifact. *)
let key_salt = "gdp-artifact/2"

let cache_key (j : job) =
  (* Artifacts never depend on par_domains, so every domain count maps
     to the par_domains = 1 key: such jobs coalesce and share entries. *)
  let settings_json =
    Minijson.encode (Settings.to_json { j.settings with Settings.par_domains = 1 })
  in
  let machine = Fmt.str "%a" Vliw_machine.pp (Settings.machine j.settings) in
  let input = String.concat "," (List.map string_of_int j.input) in
  Cache.digest_key ~parts:[ key_salt; j.source; input; settings_json; machine ]

let bench_name (j : job) =
  (* Only source + input matter: the settings do not change what
     [prepare_default] computes for a given program. *)
  let input = String.concat "," (List.map string_of_int j.input) in
  let d = Cache.digest_key ~parts:[ j.source; input ] in
  "svc-" ^ String.sub d 0 16

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

let artifact (e : Pipeline.evaluation) =
  let homes =
    List.sort
      (fun (a, _) (b, _) -> Vliw_ir.Data.compare_obj a b)
      e.outcome.Partition.Methods.obj_home
  in
  Minijson.obj
    [
      ("schema", Minijson.str "gdp-artifact/1");
      ("method", Minijson.str e.outcome.Partition.Methods.method_name);
      ("cycles", Minijson.int e.report.Vliw_sched.Perf.total_cycles);
      ("dynamic_moves", Minijson.int e.report.Vliw_sched.Perf.dynamic_moves);
      ("static_moves", Minijson.int e.report.Vliw_sched.Perf.static_moves);
      ("rhop_runs", Minijson.int e.outcome.Partition.Methods.rhop_runs);
      ( "obj_homes",
        Minijson.list
          (List.map
             (fun (o, c) ->
               Minijson.obj
                 [
                   ("obj", Minijson.str (Vliw_ir.Data.obj_to_string o));
                   ("cluster", Minijson.int c);
                 ])
             homes) );
    ]

let evaluate_job ?par_workers (j : job) =
  let bench =
    {
      Benchsuite.Bench_intf.name = bench_name j;
      description = "gdpcd job";
      source = j.source;
      input = Array.of_list j.input;
      exhaustive_ok = false;
    }
  in
  match
    try
      let prepared = Pipeline.prepare_default bench in
      Pipeline.run ~prepared
        ~mode:(Pipeline.Checked { verify = j.verify })
        ?par_workers j.settings
    with e -> Error (Printexc.to_string e)
  with
  | Error m -> Error m
  | Ok (Pipeline.Evaluated e) -> Ok (artifact e)
  | Ok (Pipeline.Degraded _) ->
      Error "internal: Checked mode returned a Degraded result"
