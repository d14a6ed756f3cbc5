(** Live metrics plane for the gdpcd daemon (see metrics.mli). *)

module Winhist = Telemetry.Winhist

type kind = Counter | Gauge
type point = kind * string * float

type t = {
  clock : unit -> float;
  slot_s : float;
  slots : int;
  latency : (string, Winhist.t) Hashtbl.t;  (** per method, microseconds *)
  queue_depth : Winhist.t;  (** pool pending sampled at each submit *)
  mutable methods : string list;  (** insertion order, for stable output *)
}

let create ?clock ?(slot_s = 10.) ?(slots = 6) () =
  let wall = Unix.gettimeofday in
  let clock = match clock with Some f -> f | None -> fun () -> wall () *. 1e6 in
  {
    clock;
    slot_s;
    slots;
    latency = Hashtbl.create 8;
    queue_depth = Winhist.create ~clock ~slot_s ~slots ();
    methods = [];
  }

let latency_hist t method_ =
  match Hashtbl.find_opt t.latency method_ with
  | Some h -> h
  | None ->
      let h = Winhist.create ~clock:t.clock ~slot_s:t.slot_s ~slots:t.slots () in
      Hashtbl.replace t.latency method_ h;
      t.methods <- t.methods @ [ method_ ];
      h

let observe_latency t ~method_ us = Winhist.observe (latency_hist t method_) us
let observe_queue_depth t depth = Winhist.observe t.queue_depth (float_of_int depth)

let hist_quantiles h =
  match Winhist.quantiles h [ 0.5; 0.95; 0.99 ] with
  | [ p50; p95; p99 ] -> (p50, p95, p99)
  | _ -> (0., 0., 0.)

(* ------------------------------------------------------------------ *)
(* gdp-metrics/1                                                       *)

let of_kind kind points =
  Minijson.obj
    (List.filter_map
       (fun (k, name, v) -> if k = kind then Some (name, Minijson.float v) else None)
       points)

let to_json t points =
  let windowed name h rest =
    (name, Winhist.to_json h) :: rest
  in
  let methods =
    List.filter_map
      (fun m ->
        Option.map (fun h -> (m, Winhist.to_json h)) (Hashtbl.find_opt t.latency m))
      t.methods
  in
  Minijson.obj
    ([
       ("schema", Minijson.str "gdp-metrics/1");
       ("window_s", Minijson.float (Winhist.window_s t.queue_depth));
       ("latency_us", Minijson.obj methods);
     ]
    @ windowed "queue_depth" t.queue_depth
        [
          ("counters", of_kind Counter points);
          ("gauges", of_kind Gauge points);
        ])

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)

(* Label values: backslash, double-quote and newline must be escaped. *)
let escape_label v =
  let buf = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let add_summary buf ~name ~help ~label hists =
  Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" name);
  List.iter
    (fun (value, h) ->
      let p50, p95, p99 = hist_quantiles h in
      let lbl extra =
        match (label, extra) with
        | None, [] -> ""
        | _ ->
            let pairs =
              (match label with
              | Some l -> [ (l, value) ]
              | None -> [])
              @ extra
            in
            "{"
            ^ String.concat ","
                (List.map
                   (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
                   pairs)
            ^ "}"
      in
      List.iter
        (fun (q, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" name
               (lbl [ ("quantile", q) ])
               (prom_float v)))
        [ ("0.5", p50); ("0.95", p95); ("0.99", p99) ];
      Buffer.add_string buf
        (Printf.sprintf "%s_sum%s %s\n" name (lbl [])
           (prom_float (Winhist.sum h)));
      Buffer.add_string buf
        (Printf.sprintf "%s_count%s %d\n" name (lbl []) (Winhist.count h)))
    hists

let to_prometheus t points =
  let buf = Buffer.create 2048 in
  let method_hists =
    List.filter_map
      (fun m ->
        Option.map (fun h -> (m, h)) (Hashtbl.find_opt t.latency m))
      t.methods
  in
  add_summary buf ~name:"gdpcd_request_latency_us"
    ~help:
      (Printf.sprintf
         "Request latency in microseconds over a sliding %.0f s window"
         (Winhist.window_s t.queue_depth))
    ~label:(Some "method") method_hists;
  add_summary buf ~name:"gdpcd_queue_depth"
    ~help:"Pool pending depth sampled at each submission (sliding window)"
    ~label:None
    [ ("", t.queue_depth) ];
  List.iter
    (fun (kind, name, value) ->
      let name = "gdpcd_" ^ name in
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" name
           (match kind with Counter -> "counter" | Gauge -> "gauge"));
      Buffer.add_string buf
        (Printf.sprintf "%s %s\n" name (prom_float value)))
    points;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Trace registry                                                      *)

module Traces = struct
  type entry = { e_id : string; e_doc : Minijson.t }

  type t = {
    capacity : int;
    table : (string, Minijson.t) Hashtbl.t;
    ring : entry option array;  (** overwrite slot order = insertion order *)
    mutable next : int;
    mutable total : int;
  }

  let create ?(capacity = 512) () =
    if capacity < 1 then invalid_arg "Traces.create: capacity must be positive";
    {
      capacity;
      table = Hashtbl.create capacity;
      ring = Array.make capacity None;
      next = 0;
      total = 0;
    }

  let add t ~trace_id doc =
    (match t.ring.(t.next) with
    | Some old -> Hashtbl.remove t.table old.e_id
    | None -> ());
    t.ring.(t.next) <- Some { e_id = trace_id; e_doc = doc };
    (* a re-added id must not be evicted by its own stale ring slot *)
    Hashtbl.replace t.table trace_id doc;
    t.next <- (t.next + 1) mod t.capacity;
    t.total <- t.total + 1

  let find t trace_id = Hashtbl.find_opt t.table trace_id
  let length t = Hashtbl.length t.table
  let total t = t.total
end
