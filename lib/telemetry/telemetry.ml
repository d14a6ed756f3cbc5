(** See telemetry.mli.

    Domain-safety model: the span stack and completed-span list are
    owned by the main domain — [with_span]/[span_arg]/[record_span]
    called from a [Par] worker domain run their body without recording
    (a worker's spans would otherwise interleave into a foreign stack).
    Counters ARE recorded from workers: the counter table is guarded by
    [metrics_lock], so concurrent [incr]s merge instead of racing.  On
    OCaml 4.x the lock compiles to a no-op and every call site behaves
    exactly as before.

    [enable]/[disable]/[reset]/[capture]/[snapshot] are main-domain
    operations; call them outside parallel regions.

    Depth bound: a span's depth is its open recorded ancestors' count,
    so roots are depth 0.  A span deeper than the recording's
    [max_depth] (set by [capture ~max_depth]) runs unrecorded; while
    one is open, [skipped] is positive and [span_arg] has no span of
    its own to annotate, so it drops the annotation. *)

let log_src = Logs.Src.create "telemetry" ~doc:"GDP telemetry subsystem"

module Log = (val Logs.src_log log_src : Logs.LOG)

type span = {
  id : int;
  parent : int option;
  name : string;
  start_us : float;
  dur_us : float;
  args : (string * string) list;
}

type snapshot = { spans : span list; counters : (string * int) list }

type open_span = {
  o_id : int;
  o_parent : int option;
  o_name : string;
  o_start : float;
  o_depth : int;
  mutable o_args : (string * string) list;
}

type state = {
  mutable enabled : bool;
  mutable completed : span list;  (** reverse completion order *)
  mutable stack : open_span list;  (** innermost first *)
  mutable next_id : int;
  max_depth : int;  (** deepest recorded span; roots are depth 0 *)
  mutable skipped : int;  (** open spans too deep to record *)
  table : (string, int) Hashtbl.t;
}

let fresh_state ?(max_depth = max_int) () =
  {
    enabled = false;
    completed = [];
    stack = [];
    next_id = 0;
    max_depth;
    skipped = 0;
    table = Hashtbl.create 32;
  }

let st = ref (fresh_state ())

(* Guards [table] (the only state worker domains may touch).  The
   enabled flag is read unlocked: it only flips outside parallel
   regions, and a stale read merely skips/records one increment. *)
let metrics_lock = Par.Lock.create ()

(* Whole microseconds, so every time a trace or sink prints is an
   integer.  The product is already whole where gettimeofday counts
   microseconds, but not on a platform whose clock is finer. *)
let default_clock () = Float.round (Unix.gettimeofday () *. 1e6)
let clock = ref default_clock
let set_clock = function
  | Some f -> clock := f
  | None -> clock := default_clock

let is_enabled () = !st.enabled

let enable () =
  if not !st.enabled then Log.debug (fun m -> m "recording enabled");
  !st.enabled <- true

let disable () = !st.enabled <- false

let reset () =
  let s = !st in
  s.completed <- [];
  s.next_id <- 0;
  Par.Lock.with_lock metrics_lock (fun () -> Hashtbl.reset s.table)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let close_span (s : state) (o : open_span) ~end_us =
  s.completed <-
    {
      id = o.o_id;
      parent = o.o_parent;
      name = o.o_name;
      start_us = o.o_start;
      dur_us = Float.max 0. (end_us -. o.o_start);
      args = List.rev o.o_args;
    }
    :: s.completed

let depth_of_next s = match s.stack with [] -> 0 | o :: _ -> o.o_depth + 1

let with_span ?(args = []) name f =
  let s = !st in
  if (not s.enabled) || not (Par.is_main_domain ()) then f ()
  else if depth_of_next s > s.max_depth then begin
    s.skipped <- s.skipped + 1;
    Fun.protect ~finally:(fun () -> s.skipped <- s.skipped - 1) f
  end
  else begin
    let id = s.next_id in
    s.next_id <- id + 1;
    let parent = match s.stack with [] -> None | o :: _ -> Some o.o_id in
    let o =
      {
        o_id = id;
        o_parent = parent;
        o_name = name;
        o_start = !clock ();
        o_depth = depth_of_next s;
        o_args = List.rev args;
      }
    in
    s.stack <- o :: s.stack;
    Fun.protect
      ~finally:(fun () ->
        let end_us = !clock () in
        (* pop back to (and through) our frame; anything above it was
           left open by an escaping exception and closes at our end time *)
        let rec pop () =
          match s.stack with
          | [] -> ()
          | top :: rest ->
              s.stack <- rest;
              close_span s top ~end_us;
              if top.o_id <> id then pop ()
        in
        pop ())
      f
  end

let span_arg key value =
  let s = !st in
  if s.enabled && s.skipped = 0 && Par.is_main_domain () then
    match s.stack with
    | [] -> ()
    | o :: _ -> o.o_args <- (key, value) :: o.o_args

let now_us () = !clock ()

let record_span ?(args = []) name ~start_us ~dur_us =
  let s = !st in
  if s.enabled && Par.is_main_domain () && depth_of_next s <= s.max_depth
  then begin
    let id = s.next_id in
    s.next_id <- id + 1;
    let parent = match s.stack with [] -> None | o :: _ -> Some o.o_id in
    let dur_us = Float.max 0. dur_us in
    s.completed <- { id; parent; name; start_us; dur_us; args } :: s.completed
  end

let timed name f =
  let t0 = !clock () in
  let r = with_span name f in
  (r, (!clock () -. t0) /. 1e6)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

let incr ?(by = 1) name =
  if by < 0 then
    invalid_arg
      (Printf.sprintf "Telemetry.incr: negative increment %d of %s" by name);
  let s = !st in
  if s.enabled then
    Par.Lock.with_lock metrics_lock (fun () ->
        Hashtbl.replace s.table name
          (by + Option.value ~default:0 (Hashtbl.find_opt s.table name)))

let counter_value name =
  Par.Lock.with_lock metrics_lock (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt !st.table name))

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

let snapshot () : snapshot =
  let s = !st in
  let spans =
    List.sort
      (fun a b ->
        match compare a.start_us b.start_us with 0 -> compare a.id b.id | c -> c)
      s.completed
  in
  let counters =
    Par.Lock.with_lock metrics_lock (fun () ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.table [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { spans; counters }

let capture ?max_depth f =
  let saved = !st in
  st := fresh_state ?max_depth ();
  !st.enabled <- true;
  Fun.protect
    ~finally:(fun () -> st := saved)
    (fun () ->
      let r = f () in
      (r, snapshot ()))

module Snapshot = struct
  let spans_named snap name =
    List.filter (fun sp -> String.equal sp.name name) snap.spans

  let total_seconds snap name =
    List.fold_left (fun a sp -> a +. sp.dur_us) 0. (spans_named snap name)
    /. 1e6

  let find_counter snap name = List.assoc_opt name snap.counters

  let children snap sp =
    List.filter (fun c -> c.parent = Some sp.id) snap.spans
end

(* ------------------------------------------------------------------ *)
(* Span codec                                                          *)

let args_json args = Minijson.obj (List.map (fun (k, v) -> (k, Minijson.str v)) args)

let span_to_json sp =
  Minijson.obj
    ([
       ("id", Minijson.int sp.id);
       ("parent", Minijson.option Minijson.int sp.parent);
       ("name", Minijson.str sp.name);
       ("start_us", Minijson.float sp.start_us);
       ("dur_us", Minijson.float sp.dur_us);
     ]
    @ if sp.args = [] then [] else [ ("args", args_json sp.args) ])

let span_of_json doc =
  let ( let* ) = Option.bind in
  let field name conv = Option.bind (Minijson.member name doc) conv in
  let* id = field "id" Minijson.to_int in
  let* name = field "name" Minijson.to_string in
  let* start_us = field "start_us" Minijson.to_float in
  let* dur_us = field "dur_us" Minijson.to_float in
  let* parent =
    match Minijson.member "parent" doc with
    | None | Some Minijson.Null -> Some None
    | Some p -> Option.map Option.some (Minijson.to_int p)
  in
  let* args =
    match Minijson.member "args" doc with
    | None -> Some []
    | Some (Minijson.Obj kvs) ->
        List.fold_right
          (fun (k, v) acc ->
            let* acc = acc in
            let* v = Minijson.to_string v in
            Some ((k, v) :: acc))
          kvs (Some [])
    | Some _ -> None
  in
  Some { id; parent; name; start_us; dur_us; args }

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

module Sink = struct
  (* Chrome's trace viewer rejects NaN/inf, and so does Minijson.encode:
     clamp them to 0. *)
  let finite v = if Float.is_finite v then Minijson.float v else Minijson.int 0

  let chrome_trace ppf (snap : snapshot) =
    let event fields = Minijson.obj (("pid", Minijson.int 1) :: fields) in
    let meta =
      event
        [
          ("tid", Minijson.int 1);
          ("ph", Minijson.str "M");
          ("name", Minijson.str "process_name");
          ("args", Minijson.obj [ ("name", Minijson.str "gdp") ]);
        ]
    in
    let end_ts =
      List.fold_left
        (fun acc (sp : span) -> Float.max acc (sp.start_us +. sp.dur_us))
        0. snap.spans
    in
    let complete (sp : span) =
      event
        ([
           ("tid", Minijson.int 1);
           ("ph", Minijson.str "X");
           ("name", Minijson.str sp.name);
           ("cat", Minijson.str "gdp");
           ("ts", finite sp.start_us);
           ("dur", finite sp.dur_us);
         ]
        @ if sp.args = [] then [] else [ ("args", args_json sp.args) ])
    in
    let counter (name, v) =
      event
        [
          ("ph", Minijson.str "C");
          ("name", Minijson.str name);
          ("ts", finite end_ts);
          ("args", Minijson.obj [ ("value", Minijson.int v) ]);
        ]
    in
    (* one event per line *)
    let events =
      (meta :: List.map complete snap.spans) @ List.map counter snap.counters
    in
    Format.pp_print_string ppf
      ("{\"traceEvents\":["
      ^ String.concat ",\n" (List.map Minijson.encode events)
      ^ "],\"displayTimeUnit\":\"ms\"}\n")

  let with_out_file path f =
    let oc = open_out path in
    let ppf = Format.formatter_of_out_channel oc in
    Fun.protect
      ~finally:(fun () ->
        Format.pp_print_flush ppf ();
        close_out oc)
      (fun () -> f ppf)

  let write_chrome_trace path snap =
    with_out_file path (fun ppf -> chrome_trace ppf snap);
    Log.info (fun m ->
        m "wrote Chrome trace (%d spans, %d counters) to %s"
          (List.length snap.spans)
          (List.length snap.counters)
          path)

  (* ---------------------------------------------------------------- *)
  (* Span tree                                                         *)

  type agg = {
    a_name : string;
    a_count : int;
    a_total : float;  (** microseconds *)
    a_children : agg list;
  }

  (** Group sibling spans by name (first-seen order) and aggregate
      recursively.  [kids] maps a span id to its children in start
      order, built once per render so the whole tree costs time linear
      in the span count. *)
  let rec aggregate kids (siblings : span list) : agg list =
    let order = ref [] in
    let by_name = Hashtbl.create 8 in
    List.iter
      (fun sp ->
        if not (Hashtbl.mem by_name sp.name) then begin
          Hashtbl.replace by_name sp.name [];
          order := sp.name :: !order
        end;
        Hashtbl.replace by_name sp.name (sp :: Hashtbl.find by_name sp.name))
      siblings;
    List.rev_map
      (fun name ->
        let sps = List.rev (Hashtbl.find by_name name) in
        let children =
          List.concat_map
            (fun sp -> Option.value ~default:[] (Hashtbl.find_opt kids sp.id))
            sps
        in
        {
          a_name = name;
          a_count = List.length sps;
          a_total = List.fold_left (fun a sp -> a +. sp.dur_us) 0. sps;
          a_children = aggregate kids children;
        })
      (List.rev !order)
    |> List.rev

  let span_tree ppf (snap : snapshot) =
    let kids = Hashtbl.create 256 in
    List.iter
      (fun (sp : span) ->
        Option.iter
          (fun p ->
            Hashtbl.replace kids p
              (sp :: Option.value ~default:[] (Hashtbl.find_opt kids p)))
          sp.parent)
      (List.rev snap.spans);
    let roots =
      List.filter (fun (sp : span) -> sp.parent = None) snap.spans
    in
    if roots = [] then Fmt.pf ppf "no spans recorded@."
    else begin
      Fmt.pf ppf "%-42s %12s %12s %8s@." "span" "total (ms)" "self (ms)"
        "calls";
      let rec render depth (a : agg) =
        let child_total =
          List.fold_left (fun acc c -> acc +. c.a_total) 0. a.a_children
        in
        let self = Float.max 0. (a.a_total -. child_total) in
        let label =
          Printf.sprintf "%s%s" (String.make (2 * depth) ' ') a.a_name
        in
        Fmt.pf ppf "%-42s %12.3f %12.3f %8d@." label (a.a_total /. 1e3)
          (self /. 1e3) a.a_count;
        List.iter (render (depth + 1)) a.a_children
      in
      List.iter (render 0) (aggregate kids roots)
    end

  let counter_table ppf (snap : snapshot) =
    if snap.counters <> [] then begin
      Fmt.pf ppf "%-42s %12s@." "counter" "value";
      List.iter
        (fun (name, v) -> Fmt.pf ppf "%-42s %12d@." name v)
        snap.counters
    end

  let summary ppf snap =
    span_tree ppf snap;
    if snap.counters <> [] then Fmt.pf ppf "@.";
    counter_table ppf snap

  let write_summary path snap =
    with_out_file path (fun ppf -> summary ppf snap);
    Log.info (fun m ->
        m "wrote summary (%d spans, %d counters) to %s"
          (List.length snap.spans)
          (List.length snap.counters)
          path)
end

(* ------------------------------------------------------------------ *)
(* Sliding-window histograms                                           *)

module Winhist = struct
  (* Sub-octave log-scale value buckets: bucket 0 holds values below 1,
     bucket i (i >= 1) holds [2^((i-1)/R), 2^(i/R)) with R = 4
     sub-buckets per octave.  A quantile estimate returns the geometric
     midpoint of its bucket, so the bucketing error is bounded by a
     factor of 2^(1/(2R)) relative to any value in the bucket. *)
  let resolution = 4
  let octaves = 38
  let value_buckets = 1 + (resolution * octaves)
  let max_rel_error = Float.pow 2. (1. /. float_of_int (2 * resolution)) -. 1.

  let vbucket_of v =
    if not (v >= 1.) (* also catches NaN *) then 0
    else
      min (value_buckets - 1)
        (1 + int_of_float (float_of_int resolution *. Float.log2 v))

  (* Geometric midpoint of a bucket — the quantile estimate. *)
  let vbucket_mid i =
    if i = 0 then 0.5
    else Float.pow 2. ((float_of_int i -. 0.5) /. float_of_int resolution)

  type slot = {
    mutable s_epoch : int;  (** slot-width periods since the epoch; -1 = empty *)
    mutable s_count : int;
    mutable s_sum : float;
    mutable s_min : float;
    mutable s_max : float;
    s_counts : int array;
  }

  type t = {
    slot_us : float;
    n_slots : int;
    w_clock : unit -> float;
    w_slots : slot array;
    lock : Par.Lock.t;
  }

  let create ?clock ?(slot_s = 10.) ?(slots = 6) () =
    if slot_s <= 0. then invalid_arg "Winhist.create: slot_s must be positive";
    if slots < 1 then invalid_arg "Winhist.create: slots must be at least 1";
    {
      slot_us = slot_s *. 1e6;
      n_slots = slots;
      w_clock = (match clock with Some f -> f | None -> default_clock);
      w_slots =
        Array.init slots (fun _ ->
            {
              s_epoch = -1;
              s_count = 0;
              s_sum = 0.;
              s_min = infinity;
              s_max = neg_infinity;
              s_counts = Array.make value_buckets 0;
            });
      lock = Par.Lock.create ();
    }

  let window_s t = t.slot_us *. float_of_int t.n_slots /. 1e6

  let clear_slot s =
    s.s_epoch <- -1;
    s.s_count <- 0;
    s.s_sum <- 0.;
    s.s_min <- infinity;
    s.s_max <- neg_infinity;
    Array.fill s.s_counts 0 value_buckets 0

  let current_epoch t = int_of_float (t.w_clock () /. t.slot_us)

  let observe t v =
    Par.Lock.with_lock t.lock (fun () ->
        let e = current_epoch t in
        let s = t.w_slots.(e mod t.n_slots) in
        if s.s_epoch <> e then begin
          clear_slot s;
          s.s_epoch <- e
        end;
        s.s_count <- s.s_count + 1;
        s.s_sum <- s.s_sum +. v;
        s.s_min <- Float.min s.s_min v;
        s.s_max <- Float.max s.s_max v;
        let b = vbucket_of v in
        s.s_counts.(b) <- s.s_counts.(b) + 1)

  (* Fold the live (non-stale) slots under the lock. *)
  let fold_live t f init =
    Par.Lock.with_lock t.lock (fun () ->
        let e = current_epoch t in
        Array.fold_left
          (fun acc s ->
            if s.s_epoch >= 0 && s.s_epoch > e - t.n_slots then f acc s
            else acc)
          init t.w_slots)

  let count t = fold_live t (fun a s -> a + s.s_count) 0
  let sum t = fold_live t (fun a s -> a +. s.s_sum) 0.

  let min_max t =
    let mn, mx =
      fold_live t
        (fun (mn, mx) s -> (Float.min mn s.s_min, Float.max mx s.s_max))
        (infinity, neg_infinity)
    in
    if mn > mx then None else Some (mn, mx)

  (* Merged bucket counts over the window plus the total, in one locked
     pass, so a quantile never mixes two different window states. *)
  let merged t =
    let counts = Array.make value_buckets 0 in
    let total =
      fold_live t
        (fun a s ->
          Array.iteri (fun i n -> counts.(i) <- counts.(i) + n) s.s_counts;
          a + s.s_count)
        0
    in
    (counts, total)

  let quantile_of ~counts ~total q =
    if total = 0 then 0.
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
      let rec walk i seen =
        if i >= value_buckets then vbucket_mid (value_buckets - 1)
        else
          let seen = seen + counts.(i) in
          if seen >= rank then vbucket_mid i else walk (i + 1) seen
      in
      walk 0 0
    end

  let quantile t q =
    let counts, total = merged t in
    quantile_of ~counts ~total q

  let quantiles t qs =
    let counts, total = merged t in
    List.map (fun q -> quantile_of ~counts ~total q) qs

  let to_json t =
    let counts, total = merged t in
    let qv q = quantile_of ~counts ~total q in
    let s = sum t in
    let mean = if total = 0 then 0. else s /. float_of_int total in
    Minijson.obj
      [
        ("count", Minijson.int total);
        ("sum", Minijson.float s);
        ("mean", Minijson.float mean);
        ("p50", Minijson.float (qv 0.5));
        ("p95", Minijson.float (qv 0.95));
        ("p99", Minijson.float (qv 0.99));
        ("window_s", Minijson.float (window_s t));
      ]
end
