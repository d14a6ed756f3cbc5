(** Deterministic fault injection: registry, spec parsing, arming and
    counters.  See the interface for the contract. *)

type point = { name : string; stage : string; doc : string }

let points =
  [
    {
      name = "partition.split-group";
      stage = "graph-partition";
      doc =
        "home the objects of one access-merge group on different clusters, \
         violating the home-cluster locking invariant";
    };
    {
      name = "partition.infeasible";
      stage = "graph-partition";
      doc =
        "replace the graph partitioner's balance tolerances with an \
         infeasible (negative) constraint";
    };
    {
      name = "move.drop";
      stage = "move-insert";
      doc = "drop a required intercluster move, leaving a consumer stale";
    };
    {
      name = "move.dup";
      stage = "move-insert";
      doc =
        "duplicate an intercluster move onto the wrong cluster, splitting a \
         register web across clusters";
    };
    {
      name = "sched.overbook";
      stage = "schedule";
      doc =
        "let the list scheduler issue an operation with no free \
         function-unit or bus slot (capacity violation)";
    };
    {
      name = "sim.move-latency";
      stage = "simulate";
      doc =
        "lengthen an intercluster move's commit latency in the cycle-level \
         simulator (timing fault)";
    };
    {
      name = "sim.move-value";
      stage = "simulate";
      doc =
        "corrupt the value carried by an intercluster move in the \
         cycle-level simulator (data fault)";
    };
    {
      name = "service.frame.torn";
      stage = "service";
      doc =
        "close the client connection mid-frame, leaving the daemon a \
         truncated length-prefixed frame";
    };
    {
      name = "service.frame.corrupt";
      stage = "service";
      doc =
        "flip one byte inside an outgoing request frame's JSON payload \
         (well-formed header, garbage body)";
    };
    {
      name = "service.client.slow-loris";
      stage = "service";
      doc =
        "dribble a request frame onto the socket a few bytes at a time \
         instead of writing it whole";
    };
    {
      name = "service.client.disconnect";
      stage = "service";
      doc =
        "disconnect immediately after submitting a job, orphaning its \
         server-side waiter mid-compile";
    };
    {
      name = "service.worker.kill";
      stage = "service";
      doc = "SIGKILL a busy pool worker process mid-compile";
    };
    {
      name = "service.cache.corrupt";
      stage = "service";
      doc =
        "flip one byte in a just-written on-disk artifact store entry \
         (detected as a checksum mismatch on the next read)";
    };
  ]

let find_point name = List.find_opt (fun p -> String.equal p.name name) points

type trigger = Nth of int | Always | Every of int

type spec = (string * trigger) list

let spec_entries s = s

let pp_trigger ppf = function
  | Nth 1 -> ()
  | Nth k -> Fmt.pf ppf "@%d" k
  | Always -> Fmt.pf ppf "@*"
  | Every k -> Fmt.pf ppf "@%d*" k

let pp_spec ppf s =
  Fmt.(list ~sep:comma (fun ppf (n, t) -> Fmt.pf ppf "%s%a" n pp_trigger t))
    ppf s

let parse_entry e =
  let name, trigger =
    match String.index_opt e '@' with
    | None -> (e, Ok (Nth 1))
    | Some i ->
        let name = String.sub e 0 i in
        let t = String.sub e (i + 1) (String.length e - i - 1) in
        ( name,
          if String.equal t "*" then Ok Always
          else
            let bad () =
              Error
                (Fmt.str
                   "bad trigger %S in %S (expected a positive integer, 'N*' \
                    or '*')"
                   t e)
            in
            let n = String.length t in
            if n >= 2 && t.[n - 1] = '*' then
              (* periodic: "@N*" fires on every N-th opportunity *)
              match int_of_string_opt (String.sub t 0 (n - 1)) with
              | Some k when k >= 1 -> Ok (Every k)
              | _ -> bad ()
            else
              match int_of_string_opt t with
              | Some k when k >= 1 -> Ok (Nth k)
              | _ -> bad () )
  in
  match find_point name with
  | None ->
      Error
        (Fmt.str "unknown injection point %S (known: %s)" name
           (String.concat ", " (List.map (fun p -> p.name) points)))
  | Some _ -> Result.map (fun t -> (name, t)) trigger

let parse_spec s : (spec, string) result =
  let entries =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun e -> e <> "")
  in
  if entries = [] then Error "empty injection spec"
  else
    List.fold_left
      (fun acc e ->
        match (acc, parse_entry e) with
        | Error _, _ -> acc
        | _, Error m -> Error m
        | Ok es, Ok entry -> Ok (entry :: es))
      (Ok []) entries
    |> Result.map List.rev

(* ------------------------------------------------------------------ *)
(* Armed state                                                         *)

type state = {
  entries : (string * trigger) list;
  occurrences : (string, int) Hashtbl.t;  (** opportunities seen so far *)
  rng : Random.State.t;
}

let state : state option ref = ref None

let n_injected = ref 0
let n_detected = ref 0
let n_recovered = ref 0

let reset_counts () =
  n_injected := 0;
  n_detected := 0;
  n_recovered := 0

let arm ?(seed = 0) (s : spec) =
  state :=
    Some
      {
        entries = s;
        occurrences = Hashtbl.create 8;
        rng = Random.State.make [| seed; 0x6fa17 |];
      };
  reset_counts ()

let disarm () = state := None
let armed () = !state <> None

let fire name =
  match !state with
  | None -> false
  | Some st -> (
      match List.assoc_opt name st.entries with
      | None -> false
      | Some trigger ->
          let seen =
            1 + Option.value ~default:0 (Hashtbl.find_opt st.occurrences name)
          in
          Hashtbl.replace st.occurrences name seen;
          let inject =
            match trigger with
            | Nth k -> seen = k
            | Always -> true
            | Every k -> seen mod k = 0
          in
          if inject then begin
            incr n_injected;
            Telemetry.incr "fault.injected";
            Telemetry.incr ("fault.injected." ^ name);
            Logs.warn (fun m ->
                m "fault: injected %s (occurrence %d)" name seen)
          end;
          inject)

let rand name n =
  match !state with
  | None -> 0
  | Some st ->
      ignore name;
      if n <= 0 then 0 else Random.State.int st.rng n

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)

type counts = { injected : int; detected : int; recovered : int }

let note_detected () =
  incr n_detected;
  Telemetry.incr "fault.detected"

let note_recovered () =
  incr n_recovered;
  Telemetry.incr "fault.recovered"

let counts () =
  {
    injected = !n_injected;
    detected = !n_detected;
    recovered = !n_recovered;
  }

let pp_counts ppf c =
  Fmt.pf ppf "faults: %d injected, %d detected, %d recovered" c.injected
    c.detected c.recovered
